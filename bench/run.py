"""The olk benchmark: four workloads, a closed loop, one client thread.

    python3 bench/run.py --workload large-n --seed 1 --seconds 40 --trace 0

Workloads: large-n, profiles, verify, cli-cold (or `all`).  The loop runs
one op at a time, each after the previous one returned, from one thread,
for --seconds; inputs are built from --seed before the loop.  After the
loop every distinct op result is checked against bench/reference.py.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 each op runs untraced and then traced, the two
results must be bit-identical, and the JSON holds the per-layer metrics.
The lines before it describe the machine and the run.  Exit code 0 when
the run completed; 2 when the library cannot be found or imported.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("large-n", "profiles", "verify", "cli-cold")
POOL_SIZE = {"large-n": 36, "profiles": 40, "verify": 8, "cli-cold": 14}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# the tail percentile is taken as if over this many passes, so it does not
# move when a faster or slower run fits one pass more or less
TAIL_PASSES = 2


# ---------------------------------------------------------------------------
# machine record

def machine_record():
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": affinity, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "load_start": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# child processes

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, timeout=120):
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout)


def child_import_seconds():
    """`import olk` timed inside a fresh interpreter, by its own clock."""
    proc = _run([sys.executable, "-c",
                 "import time; t = time.perf_counter(); import olk; "
                 "print(time.perf_counter() - t)"])
    if proc.returncode != 0:
        raise RuntimeError("import olk failed in a child:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# op pools

def cli_argv(desc, folder):
    """Write the JSON inputs of one CLI op; return its argv."""
    folder.mkdir(parents=True, exist_ok=True)
    space = {"setting": desc["setting"],
             "phi": workloads.phi_json(desc["phi"]),
             "weight": workloads.weight_json(desc["weight"])}
    files = {"space": space}
    if desc["command"] == "theta":
        files["element"] = {"kind": "log_tail",
                            "amplitude": desc["profile"][1]}
    elif desc["command"] != "witness":
        files["element"] = workloads.element_json(desc["values"],
                                                  desc["measures"])
    if desc["command"] == "holder":
        files["against"] = workloads.element_json(desc["against"],
                                                  desc["measures"])
    argv = [desc["command"]]
    for key, payload in files.items():
        path = folder / f"{key}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv += [f"--{key}", str(path)]
    if desc["command"] == "witness":
        argv += ["--s", repr(desc["s"]), "--u", repr(desc["u"])]
    return argv


def run_process(cmd):
    proc = _run(cmd)
    return proc.returncode, proc.stdout


def run_cli(argv):
    return run_process([sys.executable, "-m", "olk.cli"] + argv)


def build_pool(olk, workload, seed, size=None):
    size = POOL_SIZE[workload] if size is None else size
    if workload == "large-n":
        return [workloads.large_n_slot(olk, seed, j) for j in range(size)]
    if workload == "profiles":
        return [workloads.profiles_slot(olk, seed, j) for j in range(size)]
    if workload == "verify":
        return [workloads.verify_slot(olk, seed, j) for j in range(size)]
    pool = []
    for j in range(size):
        desc = workloads.cli_slot(seed, j)
        argv = cli_argv(desc, OUT / f"cli-{seed}" / f"slot{j}")
        desc["argv"] = argv
        pool.append(workloads.Op("cli." + desc["command"], run_cli, (argv,),
                                 n=desc["values"].size, ref=desc))
    return pool


def measure_setup(olk, workload, seed):
    """Median of SETUP_REPEATS (child `import olk` + building the pool)."""
    samples = []
    pool = None
    for _ in range(SETUP_REPEATS):
        pool = None
        imported = child_import_seconds()
        start = time.perf_counter()
        pool = build_pool(olk, workload, seed)
        samples.append(imported + time.perf_counter() - start)
    settle()
    return statistics.median(samples), pool


def settle():
    """Collect garbage, then exempt every live object (the op pool, the
    imported modules) from later collections, so the cyclic collector's
    scans inside the timed loop cover only what the ops allocate."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# checking

def fingerprint(result):
    """A comparable, library-free projection of an op result."""
    if isinstance(result, float):
        return result
    if hasattr(result, "intervals"):
        return tuple((iv.lower, iv.upper, iv.ratio, iv.h_mass, iv.w_mass)
                     for iv in result.intervals)
    if hasattr(result, "attained_norm"):
        return (result.lower, result.upper, result.attained_norm)
    if isinstance(result, dict) and "rows" in result:
        return json.dumps(result, sort_keys=True, default=str)
    return result


def _in_process_cli(olk, desc):
    """What the library computes in-process for one CLI op."""
    space = olk.parse_space({"setting": desc["setting"],
                             "phi": workloads.phi_json(desc["phi"]),
                             "weight": workloads.weight_json(desc["weight"])})
    phi, w = space.phi, space.weight
    command = desc["command"]
    if command == "theta":
        f = olk.LogTailProfile(desc["profile"][1])
        return {"theta": olk.theta(phi, w, f)}
    if command == "witness":
        rep = olk.non_m_ideal_witness(phi, w, desc["s"], desc["u"])
        return {"lux_side_norm": rep.lux_side_norm,
                "orlicz_side_norm": rep.orlicz_side_norm,
                "additive_sum": rep.additive_sum, "gap": rep.gap}
    f = olk.parse_element(workloads.element_json(desc["values"],
                                                 desc["measures"]),
                          setting=desc["setting"])
    if command == "norm":
        return {"luxemburg": olk.luxemburg_norm(phi, w, f),
                "orlicz": olk.orlicz_norm_amemiya(phi, w, f)}
    if command == "dualnorm":
        conj = phi.conjugate()
        return {"dual_luxemburg": olk.dual_luxemburg_norm(conj, w, f),
                "dual_orlicz": olk.dual_orlicz_norm(conj, w, f)}
    if command == "level":
        level = (olk.level_function if desc["setting"] == "function"
                 else olk.level_sequence)
        dec = level(f.rearranged(), w)
        return {"intervals": [{"lower": iv.lower, "upper": iv.upper,
                               "ratio": iv.ratio, "h_mass": iv.h_mass,
                               "w_mass": iv.w_mass}
                              for iv in dec.intervals]}
    if command == "kinterval":
        ki = olk.k_interval(phi, w, f)
        return {"lower": ki.lower, "upper": ki.upper,
                "attained_norm": ki.attained_norm}
    h = olk.parse_element(workloads.element_json(desc["against"],
                                                 desc["measures"]),
                          setting=desc["setting"])
    return dict(olk.holder_check(phi, w, f, h))


def check_cli(olk, desc, result):
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"unparseable report: {exc}"
    if payload.get("schema") != "olk/1":
        return "missing olk/1 schema tag"
    want = _in_process_cli(olk, desc)
    for key, value in want.items():
        if payload.get(key) != value:
            return f"{key}: CLI {payload.get(key)!r} != library {value!r}"
    ref = {"phi": desc["phi"], "weight": desc["weight"],
           "values": desc["values"], "measures": desc["measures"]}
    command = desc["command"]
    if command == "norm":
        return (reference.check_finite("luxemburg", ref, want["luxemburg"])
                or reference.check_finite("amemiya", ref, want["orlicz"]))
    if command == "dualnorm":
        ref["dual"] = True
        return (reference.check_finite("dual_luxemburg", ref,
                                       want["dual_luxemburg"])
                or reference.check_finite("dual_orlicz", ref,
                                          want["dual_orlicz"]))
    if command == "level":
        return reference.check_finite(
            "level", ref, [(iv["lower"], iv["upper"], iv["ratio"])
                           for iv in want["intervals"]])
    if command == "kinterval":
        return reference.check_finite(
            "k_interval", ref,
            (want["lower"], want["upper"], want["attained_norm"]))
    if command == "theta":
        return reference.check_profile(
            "theta", {"phi": desc["phi"], "weight": desc["weight"],
                      "profile": desc["profile"]}, want["theta"])
    if command == "witness":
        return None if want["gap"] > 0.0 else "witness gap not positive"
    return None if want["satisfied"] else "Hoelder bounds violated"


def check_op(olk, workload, op, result):
    """None when the op's result matches its reference, else a message."""
    if workload == "large-n":
        return reference.check_finite(op.kind, op.ref, fingerprint(result))
    if workload == "profiles":
        return reference.check_profile(op.kind, op.ref, result)
    if workload == "verify":
        if result["violations"] or result["inconclusive"]:
            return (f"suite seed {op.ref['seed']}: {result['violations']} "
                    f"violated, {result['inconclusive']} inconclusive rows")
        return None
    return check_cli(olk, op.ref, result)


def verify_determinism(olk, seed, pooled):
    """Same-seed reports must be byte-identical at threads=1 and at the
    default thread count (pooled, from the timed loop)."""
    serial = olk.verify_suite(seed=seed, threads=1)
    return olk.specio.dumps(pooled) == olk.specio.dumps(serial)


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """One client thread, next op only after the previous one returned."""

    def __init__(self, pool):
        self.pool = pool
        self.times = []          # seconds per executed op
        self.slots = []          # pool slot per executed op
        self.errors = {}         # slot -> message of an unexpected raise
        self.results = {}        # slot -> fingerprint of the first result
        self.raw = {}            # slot -> first result
        self.mismatch = set()    # slots whose repeated result changed
        self.pass_end = []       # seconds from the start to each op's end
        self.elapsed = 0.0

    def record(self, slot, seconds, result, error):
        self.times.append(seconds)
        self.slots.append(slot)
        if error is not None:
            self.errors.setdefault(slot, error)
            return
        fp = fingerprint(result)
        if slot not in self.results:
            self.results[slot] = fp
            self.raw[slot] = result
        elif self.results[slot] != fp:
            self.mismatch.add(slot)

    def run(self, seconds, step):
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while True:
            slot = i % len(self.pool)
            step(slot, self.pool[slot])
            i += 1
            now = time.perf_counter()
            self.pass_end.append(now - start)
            if now >= deadline:
                break
        self.elapsed = time.perf_counter() - start


def timed(fn):
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # an unexpected raise counts as a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def failures(olk, workload, loop):
    """(failed op executions, messages) after checking every result."""
    bad = dict(loop.errors)
    for slot in loop.mismatch:
        bad.setdefault(slot, "result changed between repeats")
    for slot, result in loop.raw.items():
        if slot in bad:
            continue
        try:
            msg = check_op(olk, workload, loop.pool[slot], result)
        except Exception as exc:  # the reference could not be evaluated
            msg = f"reference failed: {type(exc).__name__}: {exc}"
        if msg:
            bad[slot] = msg
    failed = sum(1 for s in loop.slots if s in bad)
    return failed, [f"slot {s} ({loop.pool[s].kind}): {m}"
                    for s, m in sorted(bad.items())]


def tail(times, window=None):
    """(value, percentile) of the tail, or None with too few samples.

    The percentile is the highest one with TAIL_BEYOND samples beyond it in
    a window of `window` ops (default: all of times).  When times holds
    whole copies of that window, the value is the same for any number of
    copies, each keeping TAIL_BEYOND samples beyond it.
    """
    n = len(times)
    window = n if window is None else window
    if window <= TAIL_BEYOND or n < window:
        return None
    rank = -(-(window - TAIL_BEYOND) * n // window)   # ceil, exactly
    return sorted(times)[rank - 1], 100.0 * (window - TAIL_BEYOND) / window


def whole_passes(loop):
    """(op times, seconds, passes) of the completed passes over the pool.

    Every pass runs the same ops, so statistics over whole passes do not
    depend on where the deadline cut the last one.  Without one whole pass
    (a pool slower than the run) every executed op is used and passes is 0.
    """
    passes = len(loop.times) // len(loop.pool)
    if passes == 0:
        return loop.times, loop.elapsed, 0
    done = passes * len(loop.pool)
    return loop.times[:done], loop.pass_end[done - 1], passes


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def end_to_end(olk, workload, seed, seconds, log):
    setup_s, pool = measure_setup(olk, workload, seed)
    loop = Loop(pool)

    def step(slot, op):
        loop.record(slot, *timed(op.call))

    loop.run(seconds, step)
    failed, messages = failures(olk, workload, loop)
    attempted = len(loop.times)
    if workload == "verify" and 0 in loop.raw:
        attempted += 1
        if not verify_determinism(olk, pool[0].ref["seed"], loop.raw[0]):
            failed += 1
            messages.append("verify report differs between threads=1 and "
                            "the default thread count")
    for msg in messages:
        log(f"FAIL {msg}")
    who = (resource.RUSAGE_CHILDREN if workload == "cli-cold"
           else resource.RUSAGE_SELF)
    times, seconds, passes = whole_passes(loop)
    log(f"{len(loop.times)} ops in {loop.elapsed:.1f} s; statistics over "
        + (f"{passes} whole passes of {len(pool)} ops" if passes
           else "every op (no whole pass over the pool)"))
    metrics = {
        "ops_per_s": (len(times) / seconds, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
    }
    t = tail(times, len(pool) * min(passes, TAIL_PASSES) if passes
             else None)
    if t is not None:
        metrics["op_tail_ms"] = (1e3 * t[0], "ms")
        log(f"op_tail_ms is p{t[1]:.1f} of {len(times)} ops")
    else:
        log(f"op_tail_ms omitted: {len(times)} ops")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0,
                              "MB")
    log(f"fail_ratio {failed}/{attempted}")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def traced_loop(olk, tracer, workload, seed, seconds, ops, log):
    """Each op untraced, then traced; returns (attempted, failed, overhead).

    ops maps tracer op ids to (workload, kind, n) for the layer metrics.
    """
    pool = build_pool(olk, workload, seed)
    settle()
    loop = Loop(pool)
    plain, traced = [], []
    parity = 0
    spans_dir = OUT / f"cli-spans-{seed}"
    if workload == "cli-cold":
        spans_dir.mkdir(parents=True, exist_ok=True)

    def step(slot, op):
        dt, result, error = timed(op.call)
        loop.record(slot, dt, result, error)
        tracer.op = len(ops) + 1
        ops[tracer.op] = (workload, op.kind, op.n)
        if workload == "cli-cold":
            out = spans_dir / f"op{tracer.op}.jsonl"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out)]
            dt2, result2, error2 = timed(
                lambda: tracer.call(f"{workload}.{op.kind}", run_process,
                                    cmd + op.args[0]))
            _merge_child_spans(tracer, out)
        else:
            args = _counted_args(olk, tracer, op.args)
            tracer.install(olk)
            try:
                dt2, result2, error2 = timed(
                    lambda: tracer.call(f"{workload}.{op.kind}", op.fn,
                                        *args, **op.kwargs))
            finally:
                tracer.uninstall()
        tracer.op = 0
        nonlocal parity
        if error is None and (error2 is not None
                              or fingerprint(result2) != fingerprint(result)):
            parity += 1
            log(f"FAIL parity slot {slot} ({op.kind})")
        plain.append(dt)
        traced.append(dt2)

    loop.run(seconds, step)
    failed, messages = failures(olk, workload, loop)
    for msg in messages:
        log(f"FAIL {msg}")
    overhead = sum(traced) / sum(plain) - 1.0
    return len(loop.times), failed + parity, overhead


def _merge_child_spans(tracer, path):
    offset = 10**9 * tracer.op
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "counts" in row:
                continue
            tracer.spans.append((offset + row["id"],
                                 offset + row["parent"] if row["parent"]
                                 else 0, tracer.op, row["name"],
                                 row["start"], row["end"]))


def _counted_args(olk, tracer, args):
    out = []
    for a in args:
        if isinstance(a, olk.OrliczFunction):
            out.append(tracer.counted(a, "phi"))
        elif hasattr(a, "cumulative") or hasattr(a, "head"):
            out.append(tracer.counted(a, "weight"))
        else:
            out.append(a)
    return tuple(out)


def probe_ops(olk, tracer, workload, seed, count, ops):
    """Trace the first `count` slots of another workload's pool."""
    pool = build_pool(olk, workload, seed, count)
    tracer.install(olk)
    try:
        for op in pool:
            tracer.op = len(ops) + 1
            ops[tracer.op] = (workload, op.kind, op.n)
            tracer.call(f"{workload}.{op.kind}", op.fn,
                        *_counted_args(olk, tracer, op.args), **op.kwargs)
    finally:
        tracer.op = 0
        tracer.uninstall()


def probe_cli(olk, tracer, seed, ops):
    """Interpreter floor, import times, warm in-process run_command."""
    def wall(cmd):
        start = time.perf_counter()
        _run(cmd)
        return time.perf_counter() - start

    interp = statistics.median(wall([sys.executable, "-c", "pass"])
                               for _ in range(3))
    olk_ms, scipy_ms = [], []
    for _ in range(2):
        proc = _run([sys.executable, "-X", "importtime", "-c",
                     "import olk"])
        cumulative = _importtime(proc.stderr)
        olk_ms.append(cumulative["olk"])
        scipy_ms.append(cumulative["scipy"])
    pool = build_pool(olk, "cli-cold", seed, len(workloads.CLI_COMMANDS))
    cli = importlib.import_module("olk.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        for op in pool:
            cli.run_command(op.args[0])      # warm, untraced
        tracer.install(olk)
        try:
            for op in pool:
                tracer.op = len(ops) + 1
                ops[tracer.op] = ("cli-warm", op.kind, op.n)
                cli.run_command(op.args[0])
        finally:
            tracer.op = 0
            tracer.uninstall()
    return {"cli.interp_ms": 1e3 * interp,
            "cli.import_olk_ms": statistics.median(olk_ms),
            "cli.import_scipy_ms": statistics.median(scipy_ms)}


def _importtime(stderr):
    """Import times (ms) from `-X importtime`: olk cumulative, and the sum
    of the self times of every scipy module."""
    out = {"olk": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        try:
            own, cumulative = float(parts[0]) / 1e3, float(parts[1]) / 1e3
        except ValueError:
            continue
        if parts[2] == "olk":
            out["olk"] = cumulative
        elif parts[2] == "scipy" or parts[2].startswith("scipy."):
            out["scipy"] += own
    return out


def probe_verify(olk, tracer, seed, ops):
    """Suite at default threads and at threads=1, then traced at
    threads=1.  Returns (metrics, determinism ok)."""
    s = workloads.verify_slot(olk, seed, 0).ref["seed"]
    start = time.perf_counter()
    pooled = olk.verify_suite(seed=s)
    pooled_s = time.perf_counter() - start
    start = time.perf_counter()
    serial = olk.verify_suite(seed=s, threads=1)
    serial_s = time.perf_counter() - start
    same = olk.specio.dumps(pooled) == olk.specio.dumps(serial)
    tracer.install(olk)
    try:
        tracer.op = len(ops) + 1
        ops[tracer.op] = ("verify-serial", "verify_suite", 0)
        olk.verify_suite(seed=s, threads=1)
    finally:
        tracer.op = 0
        tracer.uninstall()
    return {"verify.serial_ms": 1e3 * serial_s,
            "verify.pool_speedup": serial_s / pooled_s,
            "verify.rows": float(len(serial["rows"]))}, same


ORACLE_CASES = ("duality.p_oracle_agreement", "norms.dual_sup_oracle")

PER_LAYER = [
    # name, unit, better
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_olk_ms", "ms", "lower"),
    ("cli.import_scipy_ms", "ms", "lower"),
    ("cli.run_command_ms", "ms", "lower"),
    ("specio.parse_ms", "ms", "lower"),
    ("specio.dumps_ms", "ms", "lower"),
    ("norms.luxemburg_ms", "ms", "lower"),
    ("norms.amemiya_ms", "ms", "lower"),
    ("norms.k_interval_ms", "ms", "lower"),
    ("level.decomp_ms", "ms", "lower"),
    ("duality.dual_luxemburg_ms", "ms", "lower"),
    ("duality.dual_orlicz_ms", "ms", "lower"),
    ("norms.evals_per_norm", "count", "lower"),
    ("norms.us_per_eval", "us", "lower"),
    ("duality.P_evals_per_norm", "count", "lower"),
    ("duality.phi_calls_per_norm", "count", "lower"),
    ("rearrange.layouts_per_op", "count", "lower"),
    ("orlicz.busy_share", "ratio", "higher"),
    ("orlicz.elems_per_op", "count", "lower"),
    ("orlicz.numeric_conj_us_per_elem", "us", "lower"),
    ("rearrange.rearranged_ms", "ms", "lower"),
    ("rearrange.scaled_ms", "ms", "lower"),
    ("norms.rho_ms", "ms", "lower"),
    ("duality.P_ms", "ms", "lower"),
    ("verify.serial_ms", "ms", "lower"),
    ("verify.pool_speedup", "ratio", "higher"),
    ("verify.oracle_cases_ms", "ms", "lower"),
    ("verify.other_cases_ms", "ms", "lower"),
    ("verify.rows", "count", "higher"),
    ("duality.p_oracle_ms", "ms", "lower"),
    ("duality.p_oracle_phi_calls", "count", "lower"),
    ("norms.dual_sup_ms", "ms", "lower"),
    ("norms.dual_sup_phi_calls", "count", "lower"),
    ("norms.quad_ms", "ms", "lower"),
    ("norms.quad_phi_calls", "count", "lower"),
    ("norms.profile_norm_ms", "ms", "lower"),
    ("norms.profile_phi_calls", "count", "lower"),
    ("norms.theta_ms", "ms", "lower"),
    ("norms.theta_phi_calls", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def layer_metrics(tracer, ops):
    """Per-layer numbers from the spans and counts of the traced ops."""
    def select(workload, kinds):
        return [op for op, (w, k, _) in ops.items()
                if w == workload and k in kinds]

    top = {}          # op id -> duration of its top-level span
    by_name = {}      # (op id, span name) -> list of durations
    for sid, parent, op, name, start, end in tracer.spans:
        if op and parent == 0 and op not in top:
            top[op] = end - start
        by_name.setdefault((op, name), []).append(end - start)

    def count(op, *keys):
        return sum(tracer.counts.get((op, k), 0.0) for k in keys)

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def spans(op_ids, name):
        return [d for op in op_ids for d in by_name.get((op, name), ())]

    m = {}
    primal = select("large-n", {"luxemburg", "amemiya"})
    dual = select("large-n", {"dual_luxemburg", "dual_orlicz"})
    with_phi = select("large-n", {"luxemburg", "amemiya", "k_interval",
                                  "dual_luxemburg", "dual_orlicz"})
    for name, kind in (("norms.luxemburg_ms", "luxemburg"),
                       ("norms.amemiya_ms", "amemiya"),
                       ("norms.k_interval_ms", "k_interval"),
                       ("level.decomp_ms", "level"),
                       ("duality.dual_luxemburg_ms", "dual_luxemburg"),
                       ("duality.dual_orlicz_ms", "dual_orlicz")):
        m[name] = 1e3 * med(top[op] for op in select("large-n", {kind})
                            if op in top)
    phi_calls = ("phi.value", "phi.derivative", "numeric.value",
                 "numeric.derivative")
    weight_calls = ("weight.head", "weight.cumulative")
    m["norms.evals_per_norm"] = mean(count(op, "phi.value") for op in primal)
    m["norms.us_per_eval"] = 1e6 * med(
        top[op] / count(op, "phi.value") for op in primal
        if op in top and count(op, "phi.value"))
    m["duality.P_evals_per_norm"] = mean(count(op, *weight_calls)
                                         for op in dual)
    m["duality.phi_calls_per_norm"] = mean(count(op, *phi_calls)
                                           for op in dual)
    m["rearrange.layouts_per_op"] = mean(count(op, *weight_calls)
                                         for op in primal)
    busy = sum(count(op, "phi.busy_s", "numeric.busy_s") for op in primal)
    total = sum(top.get(op, 0.0) for op in primal)
    m["orlicz.busy_share"] = busy / total if total else 0.0
    m["orlicz.elems_per_op"] = mean(count(op, "phi.elems", "numeric.elems")
                                    for op in with_phi)
    numeric_elems = sum(count(op, "numeric.elems") for op in with_phi)
    m["orlicz.numeric_conj_us_per_elem"] = (
        1e6 * sum(count(op, "numeric.busy_s") for op in with_phi)
        / numeric_elems if numeric_elems else 0.0)
    m["rearrange.rearranged_ms"] = 1e3 * med(spans(primal + dual,
                                                   "rearrange.rearranged"))
    m["rearrange.scaled_ms"] = 1e3 * med(spans(primal + dual,
                                               "rearrange.scaled"))
    m["norms.rho_ms"] = 1e3 * med(spans(primal, "norms.rho_modular"))
    m["duality.P_ms"] = 1e3 * med(spans(dual, "duality.P_modular"))

    warm = select("cli-warm", set(f"cli.{c}"
                                  for c in workloads.CLI_COMMANDS))
    m["cli.run_command_ms"] = 1e3 * med(top[op] for op in warm if op in top)
    m["specio.parse_ms"] = 1e3 * med(
        sum(spans([op], "specio.parse_space")
            + spans([op], "specio.parse_element")) for op in warm)
    m["specio.dumps_ms"] = 1e3 * med(sum(spans([op], "specio.dumps"))
                                     for op in warm)

    suite = select("verify-serial", {"verify_suite"})
    oracle = sum(sum(spans(suite, f"verify.case.{c}")) for c in ORACLE_CASES)
    cases = sum(d for (op, name), ds in by_name.items()
                if op in suite and name.startswith("verify.case.")
                for d in ds)
    m["verify.oracle_cases_ms"] = 1e3 * oracle
    m["verify.other_cases_ms"] = 1e3 * (cases - oracle)
    for name, span, role in (("duality.p_oracle", "duality.P_modular_oracle",
                              "p_oracle"),
                             ("norms.dual_sup",
                              "norms.orlicz_norm_dual_sup_oracle",
                              "dual_sup")):
        durations = spans(suite, span)
        m[f"{name}_ms"] = 1e3 * med(durations)
        calls = sum(count(op, f"{role}.value", f"{role}.derivative")
                    for op in suite)
        m[f"{name}_phi_calls"] = calls / len(durations) if durations else 0.0

    for name, calls, kinds in (
            ("norms.quad_ms", "norms.quad_phi_calls", {"rho"}),
            ("norms.profile_norm_ms", "norms.profile_phi_calls",
             {"luxemburg", "amemiya", "remainder"}),
            ("norms.theta_ms", "norms.theta_phi_calls", {"theta"})):
        chosen = select("profiles", kinds)
        m[name] = 1e3 * med(top[op] for op in chosen if op in top)
        m[calls] = mean(count(op, "phi.value") for op in chosen)
    return m


def per_layer(olk, workload, seed, seconds, log):
    tracer = Tracer()
    ops = {}
    attempted, failed, overhead = traced_loop(olk, tracer, workload, seed,
                                              seconds, ops, log)
    # layers the workload's own loop does not reach get a short probe, so
    # every traced run reports every per-layer metric
    if workload != "large-n":
        probe_ops(olk, tracer, "large-n", seed,
                  len(workloads.LARGE_COMBOS), ops)
    if workload != "profiles":
        probe_ops(olk, tracer, "profiles", seed, 10, ops)
    metrics = probe_cli(olk, tracer, seed, ops)
    verify_metrics, same = probe_verify(olk, tracer, seed, ops)
    metrics.update(verify_metrics)
    attempted += 1
    if not same:
        failed += 1
        log("FAIL verify report differs between thread counts")
    metrics.update(layer_metrics(tracer, ops))
    metrics["trace_overhead"] = overhead
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.jsonl"
    tracer.write(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"ops": {op: list(v) for op, v in ops.items()}})
                 + "\n")
    log(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return attempted, failed, {k: (metrics[k], units[k]) for k, _, _ in
                               PER_LAYER}


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "olk" / "__init__.py").is_file():
        print(f"error: no olk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        olk = importlib.import_module("olk")
    except ImportError as exc:
        print(f"error: cannot import olk: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def log(msg):
        print(f"# {msg}", flush=True)

    machine = machine_record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = per_layer if args.trace else end_to_end
        a, f, m = run(olk, name, args.seed, args.seconds, log)
        attempted += a
        failed += f
        for key, (value, unit) in m.items():
            log(f"{name} {key} = {value:.6g} {unit}")
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": unit}
    machine["load_end"] = os.getloadavg()[0]
    machine["overloaded"] = max(machine["load_start"],
                                machine["load_end"]) > machine["nproc"]
    log("machine " + json.dumps(machine))
    if machine["overloaded"]:
        log("WARNING load average exceeded nproc during the run")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
