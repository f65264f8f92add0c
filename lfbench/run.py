"""lanefuse benchmark harness.

Run from the root of a checkout:

    python3 lfbench/run.py --workload forward_reference --seed 42 --seconds 30 --trace 0
    python3 lfbench/run.py --workload all --seed 42 --seconds 30 --trace 0

Each workload runs in one process as a closed loop with one client: it makes
one call through a public entry point of ``lanefuse``, waits for the result,
checks it, and makes the next. ``--seed`` is the scene seed (the program's
``--seed-scene``); the parameter seed stays at its default. ``--trace 0``
measures the end-to-end metrics with nothing instrumented; ``--trace 1``
wraps the public functions of each module (see ``spans.py``) and reports the
per-layer metrics instead. The last line of standard output is one JSON
object; the lines before it are a readable table and the provenance. See
README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SUITE = "reference"
SETUP_PROBES = 5
MIN_TAIL_BEYOND = 10
MAX_WINDOW_S = 120.0  # keeps a run inside three minutes


@dataclass(frozen=True)
class Workload:
    kind: str  # "forward": one run_pipeline call per op; "eval": one suite eval per op
    lidar_density: float | None  # None keeps the config default
    tail_q: float  # percentile reported as call_ms_tail


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    "forward_reference": Workload("forward", None, 95.0),
    "forward_dense": Workload("forward", 12.0, 95.0),
    # A window holds 7-11 suites of 10 episodes, two of which run to the
    # 1200-step horizon on different scenes: p85 sits inside the cheaper of
    # those two clusters, and 67 episodes already leave ten beyond it.
    "closed_loop_gt": Workload("eval", None, 85.0),
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples, q: float) -> float:
    """The q-th percentile, refused unless at least ten samples lie beyond it."""
    n = len(samples)
    beyond = n - math.ceil(n * q / 100.0)
    if beyond < MIN_TAIL_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has {beyond} beyond it; "
                         f"need {MIN_TAIL_BEYOND}")
    return float(np.percentile(samples, q))


def can_report_tail(n: int, q: float) -> bool:
    return n - math.ceil(n * q / 100.0) >= MIN_TAIL_BEYOND


def per_key_median(times, n_keys: int) -> float:
    """Mean over the ``n_keys`` inputs (op i used input i % n_keys) of each
    input's median time. The pooled median of ten scenes with different
    costs falls in the gap between two of them and jumps with small shifts;
    this does not."""
    return float(np.mean([np.median(times[k::n_keys]) for k in range(n_keys)]))


# ---------------------------------------------------------------------------
# output gate
# ---------------------------------------------------------------------------


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def forward_digest(result) -> str:
    """Digest of a run_pipeline result: predictions, path, prior weights and
    sampled source cells."""
    p = result.predictions
    return _hash_arrays([
        p.points, p.int_logits, p.dir_logits, p.occ_logits, p.plan_logits,
        np.float64(p.speed), p.signal_logits,
        np.asarray(result.path.waypoints, dtype=float).reshape(-1, 3),
        np.float64(result.path.target_speed),
        result.prior.weights.weights, result.lane_pillars.source_cells,
    ])


def forward_problems(result, n_d: int, n_p: int) -> list[str]:
    p = result.predictions
    problems = []
    arrays = (p.points, p.int_logits, p.dir_logits, p.occ_logits, p.plan_logits,
              np.float64(p.speed), p.signal_logits)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("non-finite prediction")
    lp = result.lane_pillars
    if lp.source_cells.shape != (n_d, n_p, 2) or lp.empty.shape != (n_d, n_p) \
            or lp.features.shape[:2] != (n_d, n_p):
        problems.append(f"lane slots {lp.empty.shape} != ({n_d}, {n_p})")
    return problems


def eval_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def eval_problems(data: bytes, n_scenes: int) -> list[str]:
    obj = json.loads(data)
    problems = []
    if len(obj["scenes"]) != n_scenes:
        problems.append(f"{len(obj['scenes'])} scenes != {n_scenes}")
    for s in obj["scenes"]:
        if "error" in s:
            problems.append(f"{s['scene_id']}: {s['error']}")
        if s["ds"] != 100.0 * s["rc"] * s["is"]:
            problems.append(f"{s['scene_id']}: DS != 100*RC*IS")
    return problems


class Gate:
    """Compares each output digest with the pinned one (at the pinned seed)
    and with the first one of the same key in this run."""

    def __init__(self, pinned: dict[str, str] | None) -> None:
        self.pinned = pinned or {}
        self.first: dict[str, str] = {}
        self.failures: list[str] = []

    def check(self, key: str, digest: str, problems: list[str]) -> bool:
        reasons = list(problems)
        if key in self.pinned and digest != self.pinned[key]:
            reasons.append(f"{key}: digest differs from the pinned one")
        ref = self.first.setdefault(key, digest)
        if digest != ref:
            reasons.append(f"{key}: digest differs from this run's first")
        self.failures.extend(reasons)
        return not reasons

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def load_pinned(workload: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.exists():
        return None
    obj = json.loads(DIGESTS.read_text("utf-8"))
    if obj["seed_scene"] != seed:
        return None
    return obj["workloads"].get(workload)


# ---------------------------------------------------------------------------
# set-up and provenance
# ---------------------------------------------------------------------------


@dataclass
class Context:
    cfg: object
    store: object
    scenes: list
    pipeline: object
    cli: object


def import_program():
    if not (SRC / "lanefuse" / "__init__.py").is_file():
        raise SystemExit(f"lfbench: no lanefuse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lanefuse

    if Path(lanefuse.__file__).resolve().parent != (SRC / "lanefuse").resolve():
        raise SystemExit(f"lfbench: imported lanefuse from {lanefuse.__file__}, not {SRC}")


def setup(workload: Workload, seed: int) -> Context:
    """Imports, parameters and suite scenes: everything an op needs."""
    import_program()
    import lanefuse.cli as cli
    import lanefuse.pipeline as pipeline
    from lanefuse.config import RunConfig
    from lanefuse.fusion import build_params
    from lanefuse.scene_synth import generate_scene

    cfg = RunConfig(seed_scene=seed, suite=SUITE)
    if workload.lidar_density is not None:
        cfg = cfg.with_overrides(lidar_density=workload.lidar_density)
    store = build_params(cfg.block_config())
    scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]
    return Context(cfg=cfg, store=store, scenes=scenes, pipeline=pipeline, cli=cli)


def probe_setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh process until its inputs are ready,
    once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def blas_info() -> dict:
    """BLAS library and its thread count as found; nothing is set."""
    info: dict = {"env": {k: os.environ[k] for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                          if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        libs = []
    import ctypes

    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["library"] = Path(path).name
                info["threads"] = int(fn())
                return info
    return info


def provenance(args, workload: Workload, ctx: Context) -> dict:
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "lanefuse").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    from lanefuse.scene_synth import render_lidar

    cfg = ctx.cfg
    points = sum(len(render_lidar(s, cfg.lidar_density, cfg.lidar_noise_sigma, s.spec.seed))
                 for s in ctx.scenes)
    return {
        "git_revision": git_rev,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "seed_scene": cfg.seed_scene,
        "seed_params": cfg.seed_params,
        "workload": {"name": args.workload, "kind": workload.kind, "suite": cfg.suite,
                     "lidar_density": cfg.lidar_density, "scene_count": len(ctx.scenes),
                     "total_cloud_points": int(points)},
        "clients": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def make_op(workload: Workload, ctx: Context, gate: Gate, eval_dir: Path):
    """Returns (call, check): call(i) runs op i and returns its output;
    check(i, output) gates it outside the timed region."""
    cfg, n = ctx.cfg, len(ctx.scenes)
    if workload.kind == "forward":
        def call(i):
            return ctx.pipeline.run_pipeline(ctx.scenes[i % n], ctx.cfg, ctx.store)

        def check(i, result):
            return gate.check(f"scene_{i % n:02d}", forward_digest(result),
                              forward_problems(result, cfg.n_d, cfg.n_p))
    else:
        argv = ["eval", "--planner", "gt", "--suite", cfg.suite,
                "--seed-scene", str(cfg.seed_scene), "--out", str(eval_dir)]

        def call(i):
            code = ctx.cli.main(argv)
            return code, (eval_dir / "eval.json").read_bytes() if code == 0 else b""

        def check(i, result):
            code, data = result
            if code != 0:
                gate.fail(f"eval exited {code}")
                return False
            return gate.check("suite", eval_digest(data), eval_problems(data, n))
    return call, check


def run_window(call, check, seconds: float, done, tracer=None, first_op: int = 0):
    """Closed loop: run ops until ``seconds`` have passed and ``done(n)``
    holds, or MAX_WINDOW_S have passed. Returns per-op wall seconds, failed
    count and window wall seconds."""
    times, failed = [], 0
    t_start = time.perf_counter()
    op = first_op
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = call(op)
                dt = time.perf_counter() - t0
            else:
                out, dt = tracer.run_op(op, call, op)
        except Exception as exc:  # a failed op is counted, the loop goes on
            dt = time.perf_counter() - t0
            print(f"lfbench: op {op} raised {exc!r}", file=sys.stderr)
            out, ok = None, False
        else:
            ok = check(op, out)
        failed += not ok
        times.append(dt)
        op += 1
        elapsed = time.perf_counter() - t_start
        if (elapsed >= seconds and done(len(times))) or elapsed >= MAX_WINDOW_S:
            return times, failed, elapsed


class EpisodeTimer:
    """Wall time of each closed-loop episode, read around the cli's
    run_closed_loop binding."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.orig = cli.run_closed_loop
        self.samples: list[float] = []

    def __enter__(self):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = self.orig(*args, **kwargs)
            self.samples.append(time.perf_counter() - t0)
            return out

        self.cli.run_closed_loop = timed
        return self

    def __exit__(self, *exc):
        self.cli.run_closed_loop = self.orig


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def warm_up(workload: Workload, ctx: Context, call, check, tracer=None) -> None:
    """Untimed: one pass over the suite; its outputs become the references
    (a warm-up output that fails the gate makes the run incorrect)."""
    n = len(ctx.scenes) if workload.kind == "forward" else 1
    for i in range(n):
        check(i, call(i) if tracer is None else tracer.run_op(-1, call, i)[0])


def run_untraced(args, workload: Workload, ctx: Context, call, check, setup_times):
    warm_up(workload, ctx, call, check)
    n_scenes = len(ctx.scenes)
    per_pass = n_scenes if workload.kind == "forward" else 1
    if workload.kind == "forward":
        times, failed, elapsed = run_window(
            call, check, args.seconds, lambda n: can_report_tail(n, workload.tail_q))
        calls = times
    else:
        with EpisodeTimer(ctx.cli) as episodes:
            times, failed, elapsed = run_window(
                call, check, args.seconds,
                lambda n: can_report_tail(n * n_scenes, workload.tail_q))
        calls = episodes.samples
    metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (per_key_median(times, per_pass) * 1e3, "ms"),
        "call_ms_tail": (tail_percentile(calls, workload.tail_q) * 1e3, "ms"),
        "ops_per_s": (len(times) / elapsed, "1/s"),
    }
    detail = {"ops": len(times), "calls": len(calls), "window_s": elapsed,
              "tail_percentile": workload.tail_q, "setup_probes_s": setup_times}
    return metrics, len(times), failed, detail


def run_traced(args, workload: Workload, ctx: Context, call, check):
    n_scenes = len(ctx.scenes)
    per_pass = n_scenes if workload.kind == "forward" else 1
    tracer = spans.Tracer()
    missing = tracer.install()
    if missing:
        print(f"lfbench: functions not found, their spans stay empty: {missing}",
              file=sys.stderr)
    warm_up(workload, ctx, call, check, tracer)
    tracer.uninstall()
    # Suite passes alternate untraced and traced, so the overhead estimate
    # does not pick up slow drifts in host speed.
    plain, traced, suite_ops, failed, op = [], [], [], 0, 0
    t_start = time.perf_counter()
    while len(suite_ops) < 1 or time.perf_counter() - t_start < args.seconds:
        use = op // per_pass % 2 == 1
        if use:
            tracer.install()
        times, f, _ = run_window(call, check, 0.0, lambda n: n >= per_pass,
                                 tracer if use else None, first_op=op)
        if use:
            tracer.uninstall()
            suite_ops.append(list(range(op, op + per_pass)))
        (traced if use else plain).extend(times)
        failed += f
        op += per_pass
    # One more pass, untimed, reads the work counts from each layer's results.
    count_ops = list(range(op, op + per_pass))
    tracer.counting = True
    tracer.install()
    for i in count_ops:
        tracer.run_op(i, call, i)
    tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, suite_ops, count_ops)
    p_plain, p_traced = float(np.median(plain)), float(np.median(traced))
    metrics["trace.overhead_ms"] = ((p_traced - p_plain) * 1e3, "ms")
    metrics["trace.overhead_share"] = (p_traced / p_plain - 1.0, "ratio")
    tracer.dump(OUT / f"spans_{args.workload}.jsonl.gz")
    detail = {"untraced_ops": len(plain), "traced_ops": len(traced),
              "suite_passes": len(suite_ops), "spans": len(tracer.spans),
              "count_errors": sorted(tracer.count_errors)}
    return metrics, len(plain) + len(traced), failed, detail


ALIASES = {
    "forward": {"op_ms_p50": "forward_ms_p50", "call_ms_tail": "forward_ms_p95",
                "ops_per_s": "forward_scenes_per_s"},
    "eval": {"op_ms_p50": "eval_suite_ms_p50", "call_ms_tail": "episode_ms_p85",
             "ops_per_s": "eval_suites_per_s"},
}


def print_table(workload: Workload, metrics: dict, attempted: int, failed: int) -> None:
    aliases = ALIASES[workload.kind]
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    rows.append(("error_rate", failed / attempted, "ratio"))
    for name, value, unit in rows:
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<52} {value:>14.6g} {unit}{alias}")


def pin_digests(args, workload: Workload, ctx: Context, call) -> int:
    """Writes this workload's output digests at this seed to digests.json."""
    obj = (json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.exists()
           else {"seed_scene": args.seed, "seed_params": ctx.cfg.seed_params,
                 "workloads": {}})
    if obj["seed_scene"] != args.seed:
        raise SystemExit(f"digests.json is pinned at seed {obj['seed_scene']}")
    if workload.kind == "forward":
        digests = {f"scene_{i:02d}": forward_digest(call(i)) for i in range(len(ctx.scenes))}
    else:
        code, data = call(0)
        if code != 0:
            raise SystemExit(f"eval exited {code}")
        digests = {"suite": eval_digest(data)}
    obj["workloads"][args.workload] = digests
    DIGESTS.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", "utf-8")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42, help="scene seed (--seed-scene)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin-digests", action="store_true",
                        help="write this workload's output digests at --seed and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]

    ctx = setup(workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    eval_dir = OUT / f"eval_{os.getpid()}"
    gate = Gate(load_pinned(args.workload, args.seed))
    call, check = make_op(workload, ctx, gate, eval_dir)
    try:
        if args.pin_digests:
            return pin_digests(args, workload, ctx, call)
        if args.trace:
            metrics, attempted, failed, detail = run_traced(args, workload, ctx, call, check)
        else:
            setup_times = probe_setup_seconds(args)
            metrics, attempted, failed, detail = run_untraced(
                args, workload, ctx, call, check, setup_times)
    finally:
        shutil.rmtree(eval_dir, ignore_errors=True)

    prov = provenance(args, workload, ctx)
    for reason in gate.failures[:20]:
        print(f"lfbench: gate: {reason}", file=sys.stderr)
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"attempted={attempted}  failed={failed}")
    print_table(workload, metrics, attempted, failed)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0 and not gate.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail, "provenance": prov}, sort_keys=True) + "\n",
        "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
