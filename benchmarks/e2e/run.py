"""End-to-end benchmark of one secure prediction: four workloads on the
paper's links, library defaults, per-layer ledger measured from outside.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload mlp_b1_lan --seed 1 --seconds 20 --trace 0

The whole suite, each workload in a fresh process::

    python3 benchmarks/e2e/run.py --seed 1            # end-to-end metrics
    python3 benchmarks/e2e/run.py --seed 1 --traced   # per-layer metrics
    python3 benchmarks/e2e/run.py --aa --runs 10      # two sets of runs, compared
    python3 benchmarks/e2e/run.py --smoke             # code-path walk, no numbers

See README.md in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, os.path.join(ROOT, "src"))

import summary  # noqa: E402
from workloads import SMOKE, WORKLOADS, lookup  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import the program under test from this checkout, or exit non-zero."""
    try:
        import adapters
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program under test from {ROOT}/src: {exc}")
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"repro resolves to {repro.__file__}, not to this checkout's src/")
    # The fast-RO probe compiles its kernel into the temp directory; keep
    # that (and anything else the program spills) inside the checkout.
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    return adapters


# --------------------------------------------------------------------- #
# set-up time: fresh processes, measured from outside
# --------------------------------------------------------------------- #
def setup_only(name: str, smoke: bool) -> int:
    """What a fresh process does before its first one-shot prediction."""
    adapters = import_program()
    workload = lookup(name)
    if smoke:
        adapters.use_test_group()
    qmodel = adapters.build_model(workload.model, workload.bits, workload.side)
    adapters.model_meta(qmodel)
    adapters.shaped_channel_pair(adapters.PROFILES[workload.profile])
    return 0


def measure_setup(workload, smoke: bool, repeats: int):
    """``(samples, server)``: wall seconds of ``repeats`` fresh set-ups,
    and for a serve workload the last server, left running.

    One-shot: fresh interpreter -> imports, model build + quantization,
    channel pair -> exit.  Serve: fresh server process -> imports, model,
    bank fill, listener -> accepting connections."""
    samples, server = [], None
    for _ in range(repeats):
        if workload.kind == "serve":
            from serving import ServerProcess

            if server is not None:
                server.stop()
            server = ServerProcess(workload, smoke)
            samples.append(server.launch_s)
        else:
            command = [sys.executable, os.path.abspath(__file__), "--setup-only", workload.name]
            started = time.perf_counter()
            subprocess.run(command + (["--smoke"] if smoke else []), check=True)
            samples.append(time.perf_counter() - started)
    return samples, server


# --------------------------------------------------------------------- #
# one workload in this process (the driver's contract)
# --------------------------------------------------------------------- #
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def environment(adapters, workload, args) -> dict:
    import numpy

    return {
        **adapters.environment(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "link": workload.profile,
        "loop": f"closed, {workload.clients} client(s)",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_sha(),
    }


def run_workload(args) -> int:
    adapters = import_program()
    from oneshot import Tally, end_to_end, run_ops

    spec = load_spec()
    workload = lookup(args.workload)
    if args.smoke:
        adapters.use_test_group()
    env = environment(adapters, workload, args)
    # the traced pass reports no set-up time: it only needs the server
    repeats = workload.setup_repeats if not args.trace else int(workload.kind == "serve")
    setup_samples, server = measure_setup(workload, args.smoke, repeats)
    tally = Tally()
    try:
        qmodel = adapters.build_model(workload.model, workload.bits, workload.side)
        if args.trace:
            import traced
            from ledger import SpanLog

            spans = SpanLog()
            if workload.kind == "serve":
                metrics = traced.serve(
                    workload, qmodel, server, args.seed, args.seconds, tally,
                    args.smoke, spans,
                )
            else:
                metrics = traced.oneshot(workload, qmodel, args.seed, tally, args.smoke, spans)
            env["fastro_kernel_active"] = bool(metrics["crypto.fastro.kernel_active"])
            traced.span_summary(spans)
            spans.dump(os.path.join(BUILD_DIR, f"spans-{workload.name}.json"))
            expected = spec["per_layer"]
        else:
            if workload.kind == "serve":
                import serving

                window = serving.run_window(
                    workload, qmodel, adapters.model_meta(qmodel), server,
                    args.seed, args.seconds,
                )
                tally.count(window)
                metrics, tally.consistent = serving.window_metrics(workload, window)
                server_rss = server.metrics()["peak_rss_mib"]
                env["ops"] = f"{len(window.sessions)} sessions, {len(window.good)} predictions"
            else:
                done = run_ops(workload, qmodel, args.seed, args.seconds, tally)
                if not done:
                    raise RuntimeError("every operation failed")
                metrics = end_to_end(workload, done, tally)
                server_rss = 0.0
                env["ops"] = f"{len(done)} ops"
            metrics["setup_s"] = summary.median(setup_samples)
            metrics["peak_rss_mib"] = max(adapters.peak_rss_bytes() / 2**20, server_rss)
            env["setup_samples"] = len(setup_samples)
            expected = spec["end_to_end"]
    finally:
        if server is not None:
            server.stop()

    units = {m["name"]: m["unit"] for m in expected}
    if set(units) - set(metrics):
        raise RuntimeError(f"metrics missing: {sorted(set(units) - set(metrics))}")
    correct = tally.failed == 0 and tally.consistent
    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(metrics):
        # metrics outside BENCHMARK.json are reported for the reader, not gated
        unit = units.get(name, "s  (reported, not gated)")
        print(f"  {name:44s} {metrics[name]:>16.6g} {unit}")
    print(
        f"  attempted={tally.attempted} failed={tally.failed} "
        f"failed_frac={tally.failed / tally.attempted:.4f} "
        f"truncation_wraps={tally.wraps} bytes_rounds_repeat={tally.consistent}"
        + "".join(f" [{note}]" for note in tally.notes)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------- #
# the suite: every workload in a fresh process
# --------------------------------------------------------------------- #
def run_child(name: str, seed: int, seconds: int, trace: int, smoke: bool, quiet=False) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    started = time.perf_counter()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name}: no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["run_wall_s"] = time.perf_counter() - started
    result["env"] = next(
        (json.loads(line[4:]) for line in lines if line.startswith("env ")), {}
    )
    return result


def suite(args) -> int:
    names = list(SMOKE if args.smoke else WORKLOADS)
    traces = [0, 1] if args.smoke else [1 if args.traced else 0]
    results, ok = {}, True
    for trace in traces:
        for name in names:
            print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {trace})")
            result = run_child(name, args.seed, args.seconds, trace, args.smoke)
            print(f"   run took {result['run_wall_s']:.1f} s, correct={result['correct']}")
            ok &= result["correct"] and result["exit_code"] == 0
            results[f"{name}/trace{trace}"] = result
    if args.out and not args.smoke:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    print("suite " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def aa(args) -> int:
    """Two sets of untraced runs of the same code, compared by the bounds."""
    spec = load_spec()
    sets = []
    for which in (0, 1):
        samples: dict = {}
        for run in range(args.runs):
            for name in WORKLOADS:
                seed = args.seed + which * args.runs + run
                result = run_child(name, seed, args.seconds, 0, False, quiet=True)
                print(f"set {which + 1} run {run + 1}/{args.runs} {name} seed {seed}: "
                      f"{result['run_wall_s']:.1f} s correct={result['correct']}", flush=True)
                if not result["correct"]:
                    return 1
                for metric, cell in result["metrics"].items():
                    samples.setdefault((metric, name), []).append(cell["value"])
        sets.append(samples)
    verdicts = {}
    print(f"{'metric':20s} {'workload':14s} {'set 1 q1/med/q3':>34s} {'set 2 q1/med/q3':>34s} "
          f"{'spread':>7s} {'bound':>6s} verdict")
    for metric in spec["end_to_end"]:
        for name in WORKLOADS:
            first, second = (s[(metric["name"], name)] for s in sets)
            verdict = summary.classify(first, second, metric["better"], metric["bound"])
            if metric["name"] == "setup_s" and verdict == "unresolved":
                # the driver holds setup_s to the median comparison only
                worse = summary.worsening(
                    summary.median(first), summary.median(second), metric["better"]
                )
                verdict = "regressed" if worse > metric["bound"] else "within"
            verdicts[f"{metric['name']}/{name}"] = verdict
            cells = ["/".join(f"{v:.5g}" for v in summary.quartiles(s)) for s in (first, second)]
            spread = max(summary.spread(first), summary.spread(second))
            print(f"{metric['name']:20s} {name:14s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{spread:7.4f} {metric['bound']:6.3f} {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "verdicts": verdicts,
                "sets": [{f"{m}/{w}": v for (m, w), v in s.items()} for s in sets],
            }, fh, indent=1, sort_keys=True)
    bad = sorted(k for k, v in verdicts.items() if v != "within")
    print("aa " + ("ok: every pair within its bound" if not bad else f"NOT ok: {bad}"))
    return 0 if not bad else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="suite: per-layer pass")
    parser.add_argument("--aa", action="store_true", help="two sets of runs, compared")
    parser.add_argument("--runs", type=int, default=10, help="--aa: runs per set")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="suite / --aa: also write the results here")
    parser.add_argument("--setup-only", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        return setup_only(args.setup_only, args.smoke)
    if args.seconds is None:
        args.seconds = 2 if args.smoke else load_spec()["run_seconds"]
    if args.workload:
        return run_workload(args)
    if args.aa:
        return aa(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
