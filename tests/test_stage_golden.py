"""Golden SHA-256 digests of every stage output of the forward pass.

``run_pipeline`` is run with its ``keep`` dict on the 10 reference scenes at
scene seeds 42 and 7331 (parameter seed 7, default config), and each of the
12 stage outputs is hashed: every array field in declaration order, each
with its dtype and shape, with Python floats and float tuples as float64.
``PillarSet.spec`` is the config's grid and is left out.

When bytes move, one assertion names the first stage, in pass order, whose
digest moved, and in how many of the 20 passes: later stages move with it.
"""

import hashlib
from dataclasses import fields, is_dataclass

import numpy as np

from lanefuse.config import RunConfig
from lanefuse.fusion import build_params
from lanefuse.pipeline import run_pipeline
from lanefuse.scene_synth import generate_scene

STAGES = ("view_synth", "positional_encode", "coarse_prior", "image_transformer",
          "render_lidar", "pillarize", "lane_sample", "encode", "fusion", "heads",
          "decode", "interpret")

GOLDEN: dict[int, dict[str, tuple[str, ...]]] = {
    42: {
        "view_synth": (
            "a82f519a3fb8c485ed36462ad8333c3468023a90f9054dd89212aec15916b846",
            "c24ce14d056674c1e42623f954775b92e58937f4c7b7a31dbd1dea105d6f190c",
            "d6a89b868b1b1569bd9bac52ca813135fd95f98276284bbb7abdbc66b79afbdf",
            "09c738cee06bbe0f0182d1777f6edfdae3ac9bb18ca55068e3d5f307d08c5f61",
            "57f1b58df9d7f5b22572f1047e0d714955b6b3c952a8b040f02608c1b61552ff",
            "d04c72551e2baed5779cd10b214059d1c7da9d8c52d55ac99ed21f11d83dbc64",
            "dfef7400127e07f3e9b4e3425a184f31534a74bea605478ca33b5d865f0cc3e3",
            "a3b6970eaf4ffcceb69a77704b8bf6f283bfe52f1f26594b73c2d895cc73fc28",
            "2e0e6e072806b62f046111b288e97e08a9949014f047a1935279137128228715",
            "dd5849a700f0f7f9c42e3349be40bcf22d5c90d5a2bb22365fe8e6cbb9050e92",
        ),
        "positional_encode": (
            "c95aa556fc79048f9f1da9ea21490912cf0b5d75f4d3265cd74f66a7f8b30e2f",
            "d76ef60d032fabe8cfde38b7c67ae1b20cff94729800ad1accfeeed42b9b11a6",
            "4a46565e7c8bb27265efd9380039cfce183826180de533ada73a20f59eb2547f",
            "4a2659ca26f7119c2e8c6a3f676e030c496d391e25a92697bf40fd6950a24add",
            "87864ad2cfeb029426a2720e2228f5346a4b20f24b2bf1c68508a166cd5357e9",
            "1cd8d2f682f2d74237277cbd686160938b227fbdf0e4eb7ae2c0cd3b28c355cb",
            "2abaa9e2b3b3b8bc0f3227517fdadd5062de8ef7b8100ea3a297107882bdfdde",
            "62605eed6cf9b765c78b46e02383f4694848f9f9d23a32ad21c5f385316612ee",
            "f8f7d3c1bdbc33731e165d628cba9719d114a130e8e9947979d7bf336bcb3579",
            "a74be0b248b24508433fae35c94596dcfd2a75f9f46ac20bfe579aadf99ace28",
        ),
        "coarse_prior": (
            "104884788de62b7a5b0f937cca3282acdb15d42c18767d17ff4406eb48bf2933",
            "ef9244d94498f19e381f094aa6e96eb37912b05bdcaafeaf7e4f74c020e54806",
            "7619230548fd047bf95c8b7b99d96fd52461857019e82dddcf307ac773785d84",
            "17065b535df1d68eea900dbc721d9b23b9b3b4c535b9cfd00d1ec05a87b96649",
            "3a277f7d751f98656f090f15008973a201cec86ae3f1c96e23f54eca3e7c5eac",
            "4a499e196dc3508839588696761706414900a6fd4d6f98a3d16692528805b42b",
            "127ac8886cff4372aad06f1c770f2071f4e8e0de8d11303466f79ceeeee84bcc",
            "f3adbe8703f4b7a1db591f843e42a19eb3305871b6beaed838da13a0e172808a",
            "3bbc6295bf16a1b08df5231b13ca7b4e2220df68db4266366795ffc67bcd04ed",
            "c9b7662d633812ac2575be73fc97a79b0ad48fe05997b54e6d6a6517c0dab487",
        ),
        "image_transformer": (
            "e661a57da7ffe933d9846ae3b1937c46d65064bd5f2369e51abd222c30642417",
            "2892431d0d4a4e8daf7841982bdfb4d2979a603ffd556eea34baf8722ac6e2ca",
            "cebcc8bccc394f81dfefc7f09cbc8cce3ba1da2a42730e93822cb8172d940bd0",
            "5f102f3da376a069fc90bdc177bf76c46bafd34ccde14197b64d8d297ca73615",
            "5ef8a4ed1859873b401035d0f14b81946a3bd4d98a2ac79bc4a163793cb55ffe",
            "6f6fdf1c112222786ff45da36ab967518923ad399dddebcea19fb5a0a1725cf4",
            "3257e6cb6142150790a333f272f0950ea69b2e7a608000c9c70b2b16d3c337c7",
            "3e169421065f44bb8eb96ae95c0132457db9eee08fdd4392dc58aaa310b21b69",
            "f1b287650db1180079395395bd20c5a93d9c71f1534f2ad3dd79ba9b1fccda0b",
            "1cc0768e9dfbc4eb9dc8527ca7e27e68a8005ee7ac59f3d33e4854608026a8e8",
        ),
        "render_lidar": (
            "2fe005981cff368d002c455cf4fec70f1381306377c722228f11878321f579b8",
            "f6b786ce8fc0a980fe8b81c7ec82fec30c8e848669ab234115fdd6da46d3bc05",
            "d7905df40944a6c3f284e190f62b12aaf406753e2b598001975085f3c4709300",
            "17ffa223adc3d904dcd5d17c9e803f088e5a5ecc743fd6b27f2c538360bbcd69",
            "ea153b08c8c2f27bc27f9061803f981e8d649c236b09dd7162197ee0a0573372",
            "1ccfe69d710f244f0a38945e2af7402d3bc9d8e8bfaa9eea381dfef15d0fe166",
            "53ef741e06b101e828016d0db3a7df57dbdecb88ea74db391693d763e6dbab48",
            "906787c3574fb2f3d236024b704f9f4cb5ebce1860499a07d5d1499e8437949e",
            "79901f16831351846b983c43f97ce169729995bb81943e5a5e89a3870c91ed21",
            "93aeaf759594ca9c290783445ea83dc0b0975e7ffeb915198b234eae4ee59e70",
        ),
        "pillarize": (
            "e0141593e55c0a4bc485e6c7f83101511a0c6ca707473206308dfc78e29d9a4a",
            "3004a45ecf96476a1386f3d9088b88dce414b323cfef51a46aba37aa1571bbe2",
            "7964c401a0146c896e28b4b6ec4a0d50b34e02db9a1af439f3ceee654af57835",
            "81eeb47ba258caf3d5903d665286f1bf8b9279854c07323a1c6d5ad09a97cddb",
            "cacd81ffcbffe3dd53ba866fd15f2b0e70bdd4c223c94a4e1f0d05cbf4f5f6b6",
            "c52f00238f60ad54c06f2b5bf5f03a630ba64b9c9d390e0cae77b7c4fbd77000",
            "24aeb2b958441515675c18f2c8b5493c70cb25b077f9c7aa567eee69f00b9d63",
            "90b106ad5fb98594b23e92b7f8ac23d6adb3499614a9186565843c30e0a111a3",
            "81f7d8b7b5e93f32dcf380168189c0c53b15f005a2c0549f26b4baaf8f1b7983",
            "183aee682fb2a99fb3520a6f4b869b24cfdf0e79200fba72c3210b3ce0c5b76e",
        ),
        "lane_sample": (
            "c54fff00bfa65d95613631b1e5481495fbb243ebbfb6004b4146a9df9758920a",
            "8516255440f68c896ed2518514b11aa81c064e2dd43fd5944123ee1a73d0bb81",
            "08394d12410599f7da511ab872a12c27beed13eb79b9af62c95ed9ba8013d8f7",
            "5138bce3cc0c4481fb097bcabd9b15c318ce8d1516e4164e65a06f179099e87c",
            "6ce8c232f5cbdbdcd6fa5c42793941009376ca670ee40b3b1838190de5d69368",
            "5b1d3586eb7c86a5255f6dbf19413afc914a2b7f3d75e11cd4f88528909dd42a",
            "151b74d4ad2807dd5ad09fc26182a3de58b634dd7775518d60592854fa1ace60",
            "edafcb4c0b96f57f4b3f6c1a182d8eb81fe1b52850b7e67dc72f3ab78608d461",
            "2420029df23d935af5302d08b9e64895fe83ad731550a1868bc5a9638f2340c6",
            "f612b0f5c0bd96686fa252a70bfe3ad8428a57310cddf8b7e5070c36f2a55265",
        ),
        "encode": (
            "14f72026d46b98e8dd6ef8b253249c1d1649e6177d528d8090a2c7d01869535b",
            "32d9f21b82ef5debe29c110d72c277f877e64e598ea1cb14ce1f77f8d21ec03e",
            "6a8cdaaf72e93a908cffb8b2e3b9c0fc88a04dc4d5daebfa3b3cfd58041c57b8",
            "d6234bc373fcec345b6ccd1a877f927f26471ec43f77b5bd8da3664b17491da6",
            "a05c24bbc42373768949b236b9ac301bde98ccd34e24ebe2206f6ce5a2205b66",
            "9fdc2ec84f23e69812ae81513d80e8274480d9b6cdd9474d347cd4ed7851b9fc",
            "ff38c777be016ab85f2871b90e272b9b0bc7bb8c3160afa6d3682a08a633be62",
            "c327981ddb64ac562abffd91d4c159664a62089d55f389a85979fc0a9178e61a",
            "462d1028fd6c534c1ed34ae8114828481b817f7d93bd6f1c6ed11acd03c4b4e8",
            "459215fc583bb985d5d1956734b1beba08cb93fe7a463e7d818a95bfd8767d55",
        ),
        "fusion": (
            "d0d6a3e21905c74d6e569644cce039d0101cfd57613b6935cdbac15220914a34",
            "747031471f6047c831b275b24bca2a1babca3c012c683dd17829550da6a02e2f",
            "85a5238606ab547b57626a2397fb54387d2aaf9b905d45fcac2fabb5ae7cb26f",
            "adf7bf25a8e333d75dd0a6d64fd74412e5bd3fe5e8eaf904b258a5ce311f63fa",
            "a6da11d53a0544f0534b9f29b41790e0b98024e0e615daeb209954c82dbd5ec8",
            "2bc2be0bfea9a7dece0246d965f98ff813a1f9ea141fe2f18bb80785410f0460",
            "981f34b625d01f45640e5cfc9af3fa7bc133923e5af8580b31ea6b5b4dd3eb57",
            "f8853c16f4dd8c16aaedf7872e37a882f624cff6a8401f0962bd1fc5f05bdf4c",
            "15cfe62873c7884909bb47d9921aaa15e44af2b5a25ecdc9f30f9aaaac139740",
            "9353485a38d694115c4133416d3e195ba89fd82e89d0e6205d0b4d5e2a0180f7",
        ),
        "heads": (
            "ac8815ce833965f7d2e7ff74f757f85e1c0d654d821cf837b65505f0ca67c055",
            "95435d895462afd1d95ab2b33b555ac891ec55297a1cd124d70f83c3b8a34d25",
            "0369ff0f3da692322d0fa246ceaa88143b086e8cb501e2184151afb3639bc8d1",
            "969ee805abfa309ee1a4167fde066a40f5879d874507c3c3828c0eee49d736c9",
            "e5afcd3d6364df5782a027e245e05ed698f84596519e031a0bfe9ad2decd9ee3",
            "6a743acd4e48e392d61cefb177976b06a3ed3c0b4bc3897319b0aabda0c31880",
            "43a0c481eb57b26fd1dac6a7b65a3de42a0e884f1e250f186b8c0daec2a5af65",
            "74b3cdc431c0b44961839143d3599a236fbba37c8fcc8cdc43581258cbf5faf0",
            "532278933103ecf1b2a961546d2038876bb5d0798149272ec4c09c5c48557f45",
            "e16ff17881002cdb2c6ac53d7ccabe559e660d9a1263aa6c92ad52d7da10d0e1",
        ),
        "decode": (
            "19e3518c2d1973d664406731d64ab0869e63029f3d66e06c2d71705a8b42d7d7",
            "120dd96145d650cb47e20cdbed7aec59205b9a75a6e324ffae2167ddbb12ab24",
            "568efd867b4cf84b2ec5ee65ce753c9cff67ed0482811998a4bdf713b87d1c57",
            "5306b7857094692f9e3ae837f58c4b4c19975540f1211b5bb36b61b610c36321",
            "472428b4046ba9ed6a0c3cf080eb0cc0f542a04d02d81c6f459f926933f4c6d8",
            "1f990ffd54f30dad1cea196a06ee5dc1fde24250eaaa21ef22aec0f36484c754",
            "d0b820656a527c714a8abfb86bc6539df8549f54918bf434beccfb595e05dbc4",
            "574d888bcdf8a770672f89cf1d7be90bedfb5551868113138409818601d46dd5",
            "54b065fb5fb9ac8b56b05a79239a36e2bcff86eef361c92368166484f5cb5434",
            "4d3ab9fe400c0a9bffb061426f612d776456841419415b1c4bed572f97bcaf16",
        ),
        "interpret": (
            "920b9c0f4c46930b86b4ef066eecbdd53f8c73dce8d95a47a2573e4949c7a104",
            "e691982d0e11199c05978889497421e87863d676a4e7b6f2391275d454fe77d5",
            "2f134d7deff040059da7c106f0c30dc7e578be2694b37b24ee0dd9b561300865",
            "84e754ab758d13cc670ab9cd51d25b8a7d70e937bad5cfae013a2a1ef808001f",
            "4b8d3c9f6c2101499ffa63b1cdaa5dc599f02e78708e4ae5c69c8252ddaedb8e",
            "505459192256fd9bb2a13b6f101b9cbc73b33458a00aabc19ade867843502a4a",
            "71294f9e1c5409e2488d8a080b37ba5497a26d640c0d5c40014234f88a588678",
            "e2c3983a003f16996c8cbd78697ad33b78a5608e81a3c8060df2a3de92f447a7",
            "d7a20395f59904a58b33dba91ef2427bf43721496dd315c0f853d5667fe07d16",
            "33099345fb79fb2471b5aa71ddb6e397528e2066b9f30a40eb76127ffdec590f",
        ),
    },
    7331: {
        "view_synth": (
            "a82f519a3fb8c485ed36462ad8333c3468023a90f9054dd89212aec15916b846",
            "c24ce14d056674c1e42623f954775b92e58937f4c7b7a31dbd1dea105d6f190c",
            "cd7e45e2f23c8e5bd1ad3689385203bd0809fec40244c5d1771682cf7053a9e4",
            "09c738cee06bbe0f0182d1777f6edfdae3ac9bb18ca55068e3d5f307d08c5f61",
            "f18c8be6122dcdc56233266bdec4fdccbfcc8452633a2c9bb1b2fe3d51cbd5ac",
            "9d8902200fbd7006f0a504d469a456aa8f020caec9211a07fa9479fec41b7859",
            "442a9d538cb5ba9264010378284bd980697957d96c2980cd0bd5bf36a22f8687",
            "c0732c0a95f95453c586078858444385932b498b1ec3ca0b0c1554db0c8b4a2a",
            "b880811b118b3a263d2710cf8162dfa2dd15df69a62e12267cf1297f77a95dce",
            "1dcc87360cb6a1cd90cf43364dc11f3361a0eb5de6fb0c4fde0cf20a350a57a5",
        ),
        "positional_encode": (
            "c95aa556fc79048f9f1da9ea21490912cf0b5d75f4d3265cd74f66a7f8b30e2f",
            "d76ef60d032fabe8cfde38b7c67ae1b20cff94729800ad1accfeeed42b9b11a6",
            "b2c61609efe17ce023356a065af030a5f556946d98e36ec77c7dc8d25eebec89",
            "4a2659ca26f7119c2e8c6a3f676e030c496d391e25a92697bf40fd6950a24add",
            "348fb0244e96d5e7b102f79818e216e747c9ecd224cf6181faea9534d1df3c62",
            "02702805cad32391af3bcde70de76921127f8a559caa7de88e6987d9e1eb6a2f",
            "4c1d88e400419c934c9ec69a407a3c2b3c4160b9a575cdfe19e0b68739592fd1",
            "ff223abe0344d0a92a43e98aa1dbb8a695296953556505942280b34c61b04c61",
            "22d4486d194e131cbecba2efe0f2787b47ffcad3d1524ea0c4112ceed682040d",
            "490120901b0a75513428f703af76be21cab77a531ad6c1826fb0474e6b3a8934",
        ),
        "coarse_prior": (
            "104884788de62b7a5b0f937cca3282acdb15d42c18767d17ff4406eb48bf2933",
            "ef9244d94498f19e381f094aa6e96eb37912b05bdcaafeaf7e4f74c020e54806",
            "9b492daf4ef7244c3d1cfc52c588521b3ca22e12551a2e04759b22c2e1e4b31a",
            "17065b535df1d68eea900dbc721d9b23b9b3b4c535b9cfd00d1ec05a87b96649",
            "a757b07624a1e8b78e3727d92154f2e8f849360dfc38da9df2f09d38a4dd693c",
            "4eb681e0707a56a15e3d4683fb6eb30c5f0d30c0de981311c6dc067526b255cb",
            "542c5b4883ef0c6f29aab16efd7f0bdd435a640e76f335729c9765370fa2d821",
            "77e909c836e0f01b72a26fbfeb1df0a3667457d1e6dec256b5d33030692e4f26",
            "dec9033de515bee06a1874552f9e412408d6d24bd1a9640a5360c4dfa2030312",
            "24489bd77ac6162d0647cd59a05b763e37ee1804b9d70db7b5d109cfd8d7bf1a",
        ),
        "image_transformer": (
            "e661a57da7ffe933d9846ae3b1937c46d65064bd5f2369e51abd222c30642417",
            "2892431d0d4a4e8daf7841982bdfb4d2979a603ffd556eea34baf8722ac6e2ca",
            "e287902cbf653ea42d8fe80c9c16fc5c7a60871da5287c694eb4c8b72cd7b2c7",
            "5f102f3da376a069fc90bdc177bf76c46bafd34ccde14197b64d8d297ca73615",
            "cba09447c4ca6b617e68cd57c55ef02cdf5989d3b26fcb0727fd2ac792ec9836",
            "d1d1d979fe8842bf2c14c45f6a92bb9bda969258c51b767a426ff53c66323c59",
            "0c26c7aaabf476b580402c991c479db3707c07821106fa311d16ce5cf92ab8da",
            "9b17f1656cdfb8c03253ec7a02ed3769d838ad45eb5aeee3dcdcf26110196842",
            "c2eca77ebe7e9e1e28655fcdd5182876299020bbda7ca7e40a034253f4d34d00",
            "8bab95f6daa54d67eb7b2afe33f89db2af0bdfb6f40c6bd5af95f462b3edee0a",
        ),
        "render_lidar": (
            "9b37f04db9c54f66b2949d0807271f93ff03f2afd90d8e1d0df21e514170d5e0",
            "2b8d92db6a10178152eba2e639747c95e855ee9b0decf24d8b8d6713f8ccc498",
            "310c00a7de01b6c74833b2b191bc4eaa8e2ab458cbfb853ce3e0bf4d1a1bedbc",
            "eaad442e4084f74570323d1b54e094060c263a1d13a40b959006bc9da5fa432e",
            "8910e0c7fb52925c49027c659c598fdcb7b554fe3f66507dd5bdab8223d6ef8b",
            "dda74b7e84bbdba18a68cbe2d4318ba65e6a1e8f2db8d5dec77b5e3d403f60c4",
            "631221d5e781a221fbf76674a037e4da2bb9b25b970e943e9f5d9733e5f58765",
            "d66f1b6385678ab2959fe851545a5b43cb237802463b8d21ffefdf6da250de62",
            "d712dc1085d6de245f9c3c928a236c83323579e13ab7d1f5662ac0e836cf3f02",
            "b35e345b787f8a72ba1884293cc11ca5b1146be7b6cd777e3acccaf63f958692",
        ),
        "pillarize": (
            "edb2b35f8b4ba05196f8b7c190ab922549d7897a28e388bc240a382d0f0616ca",
            "1fc59023722ebe3dfd80f679b478db001c79782d98b68ecc47d8e2fccc90fc27",
            "89c57a5b5b60804c33b081e53b7afc96b4e664f78175c73139516cea3564941a",
            "56beb7b40147ce128861f6ec5c030e9111bcfc9a64dd01c4293dcd5ad097e38f",
            "93cfe7b3c64b7c94efb59ec76b06eea2b3ea547fbca01d38e030fb45864ef84c",
            "428d6a07d2910beb73d84d21d306203c93b58697cfdf856d18b036029f43a9ff",
            "23143941373114294cf29656001ef4fd5f7b862bc138e6912173eec33bf278c6",
            "4b6b3f61c74c9cd17350f7d3f5b51bb66627fb2cdce31dd616a036e8d9d1f875",
            "29dfd8faa20d9630f2cde0f476db3dd9e79ea31bd1841c9c771969c749fe6bb9",
            "095a3a0e12568d1401f84d15d9fa25f98b616db3dc939c16c6613baa028edc62",
        ),
        "lane_sample": (
            "57f710637874c3401eec2148506c6956f2de0b75bb31062250789f4d9b5f175c",
            "17a6896f3bf6fe74bbc7bee6695804f5f2994d4fca8f7da5d09c34b88ed76bb1",
            "6f5c9ed603df988befbccce81e6f97959b7290dae26dd30fc91325cfa5f96995",
            "96fcea7e106ae1b513655f654e050d989aa2f5e43107b84613a9aa39a165b754",
            "bf3a0951db495ef0262ce14e2c65bd2dfc299951c36f76f667d0cf1bdb7a7deb",
            "a9cfec2bb57889e0cddf6f077b899f2f54113610799e1866b04f5925948db646",
            "b584e6dd9a213962cfd17ae3b3ac1b6d3bf167ba155f43c170e20aff0c5de800",
            "52b3d5044f3f597eb6c04e557e1e6b082e68b781385efe1ed5b8f44efc7d40a1",
            "42255a9d3ba84c94f47583a97928dd25abe101763b8560b902a51556a296d626",
            "9e080f061bb507b1ab55bc0e97e35b3f3a36bafa4ad7d07c1ea4f7d7eb9183fb",
        ),
        "encode": (
            "53dc1884dc8d48ec0d151e408d0b68fb2ac8fc897a4950d71d83d370657b096d",
            "15704b99458054011681d3b8e1631246b39a67e279d15562093305a22db43dd7",
            "b464aeb41fe4c880311299eb36b8f18ab723f65d046a20caa961978c9db026a3",
            "b4b7ac8a11832d3e8996fa6d19ad4587a3de05f67f3b2950696e0e6b258d034a",
            "8ad91e38fd43156f913586e7193c2be9469c96c2c1e5e0fc702c1772e5c055e8",
            "7db80c0a2f9222e9c414765413fbe9b050e2f936743e7847efddeb04a649018f",
            "98f85005afceaf70574f3e961544b4417827ff3397a17e9f42075f971f3c9891",
            "5a46def01230cf153b932205c3cdcb023d7d8458270b36e99db90d0e65476ccb",
            "ef2283832201e11fe2e8af823ce8bf92c225c5565da3edc16c495ffb3e25554a",
            "382c0cc479f34dff2a03632d88eab46be800b1836f5909c08b48004075a69ef3",
        ),
        "fusion": (
            "f8c483eb43fd4c8aa8f90bd6010dc0e38346b63e3c3f443373981f8c971bac88",
            "54f821bcd21e287b90feb4600f8e144cb409527aa36702e6b0449ff4b394bf0b",
            "e328646ad7a5fef5d1059f81accbf437d19fa46b75af8cce0d350523a53e7b5d",
            "f3db7e7d43f568d72365ffd0d867f555c659cbd1290508c79b734cd834bc94c9",
            "518e1ae6f8411fee4562529a3386d607c5f1dd7314bfeae75d9e133c8977677e",
            "9203b0bbbc7af4d5a0fa69211c7c3098c7c4ed4e00f6888c6f5b4b60e516d8d3",
            "49c2ec3b91a5b921609f1781eba19cc35987de8783ab388fdb78448a5b4900c4",
            "27bf446626e444c649a6382944d401cb2a8af18353fefa93081cf0037b71a4f5",
            "d4af64d91e66fbc5cdbf87c24619e15446dbdafd26f300b5cb8872ec91083740",
            "e80553c53b25497e2db1fd5d36556ce0afd571d19507ebd777c4469bb6305e2d",
        ),
        "heads": (
            "3f00a0a7ddb6d047dee4730df29e21e1bfa520c1503026336b5263b718b969d3",
            "d59036c0eca43793098cde43bb729cfa62bf8a1f40bd94673ff18cd474dffe44",
            "1ac9e4a2584e5a9f8fda487a581be70ef49fb9d6877459076957d2e627125073",
            "aab260ad997bf869d474a8b0a9b0a37cce344ab1e1a0ee8804277d863f679013",
            "ddef815035b440765c074e49940cb2b59f5f67e63aa00145ba588e032d41f53b",
            "834560ac8b792b6c1ad33e25c5ec7f761060130c6deca459a552e8945e787c2e",
            "4a28d0232bc7ceb0051f74a56d23e452a879f696faca7f5488a0a760437521b5",
            "1b81ac432e45abf179ca9825a8d54078d2a25620ba523e42361b99eebfe0295f",
            "db59ae5fccce4786a30f0d3ea4886c5022591ad0306b2ce12b6ca695058b66dd",
            "e41f89648d84b6479054fc4eb713bf7b801614efe87b1afde6e7c5819c591820",
        ),
        "decode": (
            "46f4a64382df23538da9950cbc6194c2250751afd21267e01808ea28e638e4d9",
            "a82b7260b9956dc00587147bd9ae7941edd628051379785d7b2ad4b38969a163",
            "4874ba9f100322e4ba847031c174198c7920b3f234653306c0ea9c20ccd4b216",
            "6e078654e15242245dd8687b5e26e75fe97e7d4c509f35abb2e5ca110db449d1",
            "097c643f81ae958ec01430f50fea59512efd423a08685a2001af032cdb9973ed",
            "aba95c01394008317ae09c858173285fcd0b26eba8a8d64452d8b5a170e7464e",
            "5e8c2e759a793be20c179adcee43ec72b9db10ebc7594f864f2b3f6d606b39f2",
            "80e292799b65165e539d39388d399eb882d70090d9eeb229ed06350899b833eb",
            "810b67b6d32b547cffc075d902a5bf9a27b45743abc9c4670b49a2c28f3bb2ad",
            "6c2f23fc092e746afc3ec28f08639cdb6c5fac7d2e6c1b7b29acfec6e32a9ecd",
        ),
        "interpret": (
            "cb4d78ec94dce2b5b305d2c3157eac9bb2bd46d4085a147be4bc774cf3fb1f72",
            "a884beb622652400cdaa7463e7a815762b0c63698d5154378b615364fc4412cb",
            "e10cd50fbbe8262fe85f3b77f507e474aa66e7d58b26c553ff9e52c807e8ca7b",
            "e0a985de18d3f5a81da708648e45b4cb568707c682946439442fbf3068fff25b",
            "627cfd5af850026576d0d02cd727da0ac7f20d13be8e7311029b3c0ee856fcd6",
            "0bf72dc383689536d7c7fb7913ffcac17c72faff356f5a6f4f122b92d5e7ccba",
            "af38cae5a9bd0c461036458df6a344395ef3b5a501217c4cf47bfec969f92bfd",
            "3eb009a0b8ebb5c771f596bb64eb6d3b2df3995cd4192c076a13da3032c6c4c5",
            "40d8f44f9b8433c8083404e9c6c3f9fc437e988433e81851a3f6f43d1b7dca2f",
            "0ecde6bdad3e3615325b42a73edead313254f2ca020972493e38c4d08a6c2d5f",
        ),
    },
}


def _arrays(out):
    """The arrays of one stage output, field by field in declaration order."""
    if is_dataclass(out):
        for f in fields(out):
            if f.name != "spec":
                yield from _arrays(getattr(out, f.name))
    elif isinstance(out, (float, tuple)):
        yield np.asarray(out, dtype=np.float64)
    else:
        yield np.asarray(out)


def stage_digest(out) -> str:
    h = hashlib.sha256()
    for arr in _arrays(out):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def stage_digests(seed_scene: int) -> dict[str, list[str]]:
    """Per stage, the digest of its output on each reference scene."""
    cfg = RunConfig(seed_scene=seed_scene, suite="reference")
    store = build_params(cfg.block_config())
    got: dict[str, list[str]] = {name: [] for name in STAGES}
    for spec in cfg.suite_specs():
        kept = {}
        run_pipeline(generate_scene(spec, n_p=cfg.n_p), cfg, store, kept)
        assert tuple(kept) == STAGES
        for name in STAGES:
            got[name].append(stage_digest(kept[name]))
    return got


def test_stage_outputs_match_golden():
    moved = {name: 0 for name in STAGES}
    for seed_scene, want in GOLDEN.items():
        got = stage_digests(seed_scene)
        for name in STAGES:
            moved[name] += sum(g != w for g, w in zip(got[name], want[name], strict=True))
    first = next((name for name in STAGES if moved[name]), None)
    assert first is None, (f"stage {first!r} is the first to move, in {moved[first]} of "
                           f"{sum(len(want[first]) for want in GOLDEN.values())} passes")
