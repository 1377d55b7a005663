#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload des-1m --seed 1 --seconds 25 --trace 0

It builds `repro`, `node` and `perfbench-driver` (release, into
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload in fresh child
processes so every peak RSS belongs to one run alone, checks each child's
output, and prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it carries
the host (cores, CPU model, rustc, git rev) and the per-run detail; both
lines are also appended to `<target>/perfbench/results.jsonl`, which
`perfbench/steady.py` summarizes.

`--trace 0` reports the end-to-end metrics of the workload. `--trace 1`
runs the traced layer suite instead (see README.md) and reports every
per-layer metric. Workloads, metrics and reference numbers: README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The seed pool and the outputs every run is checked against; written by
# record.py. --seed picks pool[seed % len(pool)] as the `repro --seed`.
EXPECTED_PATH = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 20060619  # repro's default master seed

DES_SIZE = 1_000_000
DES_STEPS = 50
DES_PROTOCOL = "aggregation:rounds=50"  # perfbench-driver runs the same
DES_NETWORK = "wan"
FIG_SCALE = "small"
FIG_SETUP_SIZE = 100_000  # the small scale's largest overlay (`huge`)
CLUSTER = {"nodes": 1000, "procs": 2, "steps": 150}  # aggregation:rounds=30
ENVELOPE_REPS = 5
# Set-up samples per chunk: a run sets up this many times before its first
# timed unit and after each, and reports the median of all the samples.
SETUP_REPS = {"des": 2, "figures": 20, "cluster": 8}

ERR_LIMIT_PCT = 10.0  # a DES run further than this from truth fails
COVERAGE_MIN_PCT = 95.0  # traced spans must cover this share of wall time
RUN_BUDGET_S = 172.0  # every child must end within this after the build
MAX_UNITS = 40

WORKLOADS = ("des-1m", "des-1m-k2", "figures-small", "cluster-2p")


class Failure(Exception):
    """A child that failed or produced wrong output."""


class Ctx:
    def __init__(self, args):
        self.root = os.getcwd()
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.abspath(target)
        self.bin = os.path.join(self.target, "release")
        self.work = os.path.join(self.target, "perfbench")
        self.tmp = os.path.join(self.work, "tmp")
        self.seed = args.seed
        self.expected = load_expected() if os.path.exists(EXPECTED_PATH) else {
            "pool": [DEFAULT_SEED]}
        self.pool_index = args.seed % len(self.expected["pool"])
        self.pool_seed = self.expected["pool"][self.pool_index]
        self.seconds = args.seconds
        self.nproc = len(os.sched_getaffinity(0))
        self.deadline = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.children = 0
        self._digest = None

    def digest(self):
        """The sources' digest (computed once per invocation)."""
        if self._digest is None:
            self._digest = source_digest(self.root)
        return self._digest

    def exe(self, name):
        return os.path.join(self.bin, name)


class Child:
    """One finished child process and its own resource usage."""

    def __init__(self, name, wall, ru, code, out, err):
        self.name = name
        self.wall = wall
        self.cpu = ru.ru_utime + ru.ru_stime
        # ru_maxrss from wait4 covers the child and the children it reaped,
        # and nothing else: the high-water mark of this run alone.
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.code = code
        self.out = out
        self.err = err

    def json(self):
        """The child's last stdout line, parsed."""
        lines = [line for line in self.out.splitlines() if line.strip()]
        if not lines:
            raise Failure(f"{self.name}: no output")
        return json.loads(lines[-1])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(ctx, name, argv):
    """Runs argv to completion in its own session and returns a Child.

    Stdout and stderr go to files under the work directory; the child's
    rusage comes from wait4, so it is this child's alone.
    """
    ctx.children += 1
    tag = f"{ctx.children:02d}-{name}"
    out_path = os.path.join(ctx.tmp, tag + ".out")
    err_path = os.path.join(ctx.tmp, tag + ".err")
    timeout = max(5.0, ctx.deadline - time.monotonic()) if ctx.deadline else 600.0
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            cwd=ctx.root, start_new_session=True,
        )
        killed = []

        def kill():
            killed.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        out_text = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err_text = f.read()
    child = Child(name, wall, ru, proc.returncode, out_text, err_text)
    if killed:
        raise Failure(f"{name}: killed after {timeout:.0f} s")
    if child.code != 0:
        tail = " | ".join(err_text.strip().splitlines()[-3:])
        raise Failure(f"{name}: exit {child.code}: {tail}")
    return child


def operation(ctx, name, fn):
    """Counts one attempted operation; a Failure counts it as failed."""
    ctx.attempted += 1
    try:
        return fn()
    except (Failure, ValueError, KeyError, TypeError) as e:
        ctx.failed += 1
        ctx.errors.append(f"{name}: {e}")
        log(f"[perfbench] FAILED {name}: {e}")
        return None


# ------------------------------------------------------------------ build

def build(ctx, traced=True):
    """Builds repro, node and the drivers. perfbench-traced mirrors the DES
    loop body's internal calls, so untraced runs do not build it."""
    env = dict(os.environ, CARGO_TARGET_DIR=ctx.target)
    drivers = ["--bin", "perfbench-driver"] + (["--bin", "perfbench-traced"] if traced else [])
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "p2p-experiments", "--bin", "repro", "-p", "p2p-node", "--bin", "node"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "driver", "Cargo.toml"), *drivers],
    ]
    for argv in steps:
        r = subprocess.run(argv, cwd=ctx.root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")


def host_info(ctx):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    rev = None
    if os.path.isdir(os.path.join(ctx.root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root,
                           capture_output=True, text=True)
        rev = r.stdout.strip() or None
    return {
        "cores": ctx.nproc,
        "cpu_model": model,
        "rustc": rustc,
        "git_rev": rev if rev else "unknown (not a git checkout)",
        "source_digest": ctx.digest(),
    }


def source_digest(root):
    """sha256 over the sources the benchmark builds (and its own files)."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
        for p in files:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


# ----------------------------------------------------------------- checks

def err_pct(final, truth):
    return abs(final - truth) / truth * 100.0


def check_des(ctx, name, shards, events, final, truth):
    """err ≤ 10% of truth, and the run repeats exactly: at K=1 the event
    count and final estimate equal the recorded untraced run's (the goldens
    pin the sequential engine); at every K they equal those of any earlier
    run of the same seed and K on the same sources in this checkout (the
    ledger, one file per source digest: K≥2 realizations may change with
    the code by design, so only reruns of the same code are compared)."""
    e = err_pct(final, truth)
    if not e <= ERR_LIMIT_PCT:
        raise Failure(f"{name}: estimate {final} is {e:.2f}% from truth {truth}")
    got = {"events": events, "final": float(final).hex()}
    if shards == 1 and "des-k1" in ctx.expected:
        rec = ctx.expected["des-k1"][ctx.pool_index]
        if got != rec:
            raise Failure(f"{name}: {got} differs from the recorded {rec}")
    path = os.path.join(ctx.work, f"ledger-{ctx.digest()}.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    key = f"k{shards}:{ctx.pool_seed}"
    if key in ledger and ledger[key] != got:
        raise Failure(f"{name}: {got} differs from an earlier run of {key}: {ledger[key]}")
    ledger[key] = got
    with open(path, "w") as f:
        json.dump(ledger, f)
    return e


def figures_digest(directory):
    """sha256 over every CSV the sweep wrote (23 figures and Table I)."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    if len(names) != 24:
        raise Failure(f"figures: expected 24 CSV files, found {len(names)}")
    h = hashlib.sha256()
    for n in names:
        h.update(n.encode())
        with open(os.path.join(directory, n), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def orphans(ctx):
    """`node host` processes of this checkout still alive."""
    node = ctx.exe("node")
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if len(argv) > 1 and argv[0] == node.encode() and argv[1] == b"host":
            found.append(int(pid))
    return found


# -------------------------------------------------------- unit operations

def repro_des(ctx, shards, seed):
    argv = [ctx.exe("repro"), "run", "--protocol", DES_PROTOCOL, "--network", DES_NETWORK,
            "--size", str(DES_SIZE), "--steps", str(DES_STEPS), "--reps", "1",
            "--seed", str(seed), "--format", "jsonl", "--quiet",
            "--out", os.path.join(ctx.tmp, "des-out")]
    if shards > 1:
        argv += ["--shards", str(shards)]
    c = spawn(ctx, f"repro-k{shards}", argv)
    final = truth = events = None
    for line in c.out.splitlines():
        row = json.loads(line)
        if row.get("series") == "Estimation #1" and "y" in row:
            final = row["y"]
        elif row.get("series") == "Real network size":
            truth = row["y"]
        elif row.get("event") == "run_stats":
            events = row["events"]
    if final is None or truth is None or events is None:
        raise Failure("repro: estimate, truth or run_stats missing from the output")
    return c, events, final, truth


def driver(ctx, name, sub, *args):
    return spawn(ctx, name, [ctx.exe("perfbench-driver"), sub, *map(str, args)])


def setup_samples(ctx, *args):
    """Set-up times from `perfbench-driver setup` (zero-step runs)."""
    r = driver(ctx, "setup", "setup", *args).json()
    if r["events"] != 0:
        raise Failure(f"setup: a zero-step run dispatched {r['events']} events")
    return r["setup_s"]


def des_driver_args(seed):
    return ["--size", DES_SIZE, "--steps", DES_STEPS, "--seed", seed,
            "--network", DES_NETWORK]


def cluster_args(ctx):
    return ["--nodes", CLUSTER["nodes"], "--procs", CLUSTER["procs"], "--steps",
            CLUSTER["steps"], "--seed", ctx.seed]


def envelope(ctx):
    c = driver(ctx, "envelope", "envelope", *cluster_args(ctx), "--reps", ENVELOPE_REPS)
    return c.json()


def cluster_unit(ctx, env):
    c = driver(ctx, "cluster", "cluster", *cluster_args(ctx), "--node-bin", ctx.exe("node"))
    r = c.json()
    check_no_orphans(ctx)
    if r["malformed"] != 0 or r["unclean_exits"] != 0:
        raise Failure(f"cluster: {r['malformed']} malformed frames, "
                      f"{r['unclean_exits']} unclean exits")
    est = r["estimate"]
    if est is None or not env["lo"] <= est <= env["hi"]:
        raise Failure(f"cluster: estimate {est} outside the DES envelope "
                      f"[{env['lo']:.2f}, {env['hi']:.2f}]")
    return c, r


def check_no_orphans(ctx):
    left = orphans(ctx)
    if left:
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        raise Failure(f"cluster: orphan node host processes {left}")


def cluster_setup_samples(ctx):
    """Launch-to-Start times from `perfbench-driver cluster-setup`."""
    c = driver(ctx, "cluster-setup", "cluster-setup", *cluster_args(ctx),
               "--node-bin", ctx.exe("node"), "--reps", SETUP_REPS["cluster"])
    r = c.json()
    check_no_orphans(ctx)
    if r["unclean_exits"] != 0:
        raise Failure(f"cluster set-up: {r['unclean_exits']} unclean exits")
    return r["setup_s"]


def repeat(ctx, name, unit, setup):
    """Runs unit() at least once, then again while another fits --seconds,
    with one chunk of set-up samples (setup()) before the first unit and
    one after each, so that the set-up samples span the same stretch of
    time as the timed units. The chunks do not count against --seconds.
    Returns the units' results and every set-up sample (None if a chunk
    failed)."""
    results, samples = [], []

    def take_setup():
        chunk = operation(ctx, "setup", setup)
        if chunk is None:
            return False
        samples.extend(chunk)
        return True

    setup_ok = take_setup()
    spent = last = 0.0
    while len(results) < MAX_UNITS:
        if results and spent + last > ctx.seconds:
            break
        s = time.monotonic()
        r = operation(ctx, f"{name}#{len(results) + 1}", unit)
        last = time.monotonic() - s
        spent += last
        if r is None:
            break
        results.append(r)
        setup_ok &= take_setup()
    return results, (samples if setup_ok else None)


# ------------------------------------------------------ end-to-end runs

def run_des(ctx, shards):
    units, setup = repeat(
        ctx, f"des-k{shards}", lambda: des_unit(ctx, shards),
        lambda: setup_samples(ctx, *des_driver_args(ctx.pool_seed), "--shards", shards,
                              "--reps", SETUP_REPS["des"]))
    if not units or setup is None:
        return {}, {}
    setup_s = statistics.median(setup)
    wall = statistics.median(u["wall"] for u in units)
    events = units[0]["events"]
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(u["cpu"] for u in units), "s"),
        "peak_rss_mb": (statistics.median(u["rss"] for u in units), "MB"),
    }
    detail = {
        "events": events,
        "events_per_s": events / (wall - setup_s),
        "err_pct": units[0]["err_pct"],
        "final": units[0]["final"],
        "setup_samples_s": setup,
        "units": units,
    }
    return metrics, detail


def des_unit(ctx, shards):
    c, events, final, truth = repro_des(ctx, shards, ctx.pool_seed)
    e = check_des(ctx, f"repro --shards {shards}", shards, events, final, truth)
    return {"wall": c.wall, "cpu": c.cpu, "rss": c.rss_mb, "events": events,
            "final": final, "err_pct": e}


def run_figures(ctx):
    digest = ctx.expected["figures-small"][ctx.pool_index]
    units, setup = repeat(
        ctx, "figures", lambda: figures_unit(ctx, digest),
        lambda: setup_samples(ctx, "--size", FIG_SETUP_SIZE, "--steps", DES_STEPS,
                              "--seed", ctx.pool_seed, "--network", "ideal",
                              "--reps", SETUP_REPS["figures"]))
    if not units or setup is None:
        return {}, {}
    metrics = {
        "wall_s": (statistics.median(u["wall"] for u in units), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(u["cpu"] for u in units), "s"),
        "peak_rss_mb": (statistics.median(u["rss"] for u in units), "MB"),
    }
    return metrics, {"digest": digest, "jobs": ctx.nproc, "units": units,
                     "setup_samples_s": setup}


def figures_unit(ctx, digest):
    out = os.path.join(ctx.tmp, "figures-out")
    shutil.rmtree(out, ignore_errors=True)
    c = spawn(ctx, "repro-all", [
        ctx.exe("repro"), "run", "--all", "--scale", FIG_SCALE, "--jobs", str(ctx.nproc),
        "--seed", str(ctx.pool_seed), "--out", out, "--quiet"])
    got = figures_digest(out)
    if got != digest:
        raise Failure(f"figures: CSV digest {got[:16]} differs from the recorded {digest[:16]}")
    return {"wall": c.wall, "cpu": c.cpu, "rss": c.rss_mb}


def run_cluster(ctx):
    env = operation(ctx, "envelope", lambda: envelope(ctx))
    if env is None:
        return {}, {}
    units, setup = repeat(ctx, "cluster", lambda: cluster_unit_metrics(ctx, env),
                          lambda: cluster_setup_samples(ctx))
    if not units or setup is None:
        return {}, {}
    metrics = {
        "wall_s": (statistics.median(u["wall"] for u in units), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(u["cpu"] for u in units), "s"),
        "peak_rss_mb": (statistics.median(u["rss"] for u in units), "MB"),
    }
    return metrics, {"envelope": env, "units": units, "setup_samples_s": setup}


def cluster_unit_metrics(ctx, env):
    c, r = cluster_unit(ctx, env)
    return {"wall": c.wall, "cpu": c.cpu, "rss": c.rss_mb,
            "estimate": r["estimate"], "frames_sent": r["frames_sent"],
            "frames_received": r["frames_received"]}


# ------------------------------------------------------- traced layer suite

def run_traced(ctx, workload):
    """Every layer, measured once: the per-layer metrics of --trace 1.

    Order: untraced K=1 library run (the reference), traced K=1 run,
    telemetry-on K=1 run, K=2 run, the figure sweep by group, a cluster.
    """
    seed = ctx.pool_seed
    m = {}
    detail = {"workload": workload}

    def k1_off():
        c = driver(ctx, "lib-k1", "run", *des_driver_args(seed))
        r = c.json()
        check_des(ctx, "run_scenario_des", 1, r["events"], r["final"], r["truth"])
        return c, r

    off = operation(ctx, "lib-k1", k1_off)

    def traced():
        spans = os.path.join(ctx.work, f"spans-{workload}.jsonl")
        c = spawn(ctx, "traced", [ctx.exe("perfbench-traced"),
                                  *map(str, des_driver_args(seed)), "--spans", spans])
        r = c.json()
        if off is not None and (r["events"] != off[1]["events"]
                                or r["final_bits"] != off[1]["final_bits"]):
            raise Failure(
                f"traced driver diverged: events {r['events']} / final {r['final_bits']} vs "
                f"untraced {off[1]['events']} / {off[1]['final_bits']}")
        check_des(ctx, "traced", 1, r["events"], r["final"], r["truth"])
        coverage = r["covered_s"] / r["wall_s"] * 100.0
        if coverage < COVERAGE_MIN_PCT:
            raise Failure(f"traced spans cover {coverage:.1f}% of wall time (< 95%)")
        return r, coverage

    tr = operation(ctx, "traced", traced)
    if tr is not None:
        r, coverage = tr
        ev = r["events"]
        m["overlay.build_s"] = (r["build_s"], "s")
        m["overlay.adjacency_mb"] = (r["adjacency_bytes"] / 2**20, "MB")
        m["core.init_s"] = (r["init_s"], "s")
        m["sim.pop_s"] = (r["pop_s"], "s")
        m["sim.pop_ns_per_event"] = (r["pop_s"] * 1e9 / ev, "ns")
        m["sim.batch_mean"] = (ev / r["batches"], "events")
        m["sim.events"] = (ev, "count")
        m["sim.peak_queue"] = (r["peak_queue"], "count")
        m["sim.pool_hit_rate"] = (r["pool_hit_rate"], "ratio")
        m["core.step_s"] = (r["step_s"], "s")
        m["core.handler_s"] = (r["handler_s"], "s")
        m["core.handler_ns_per_event"] = (r["handler_s"] * 1e9 / ev, "ns")
        for kind in ("aggregation-push", "aggregation-pull"):
            m[f"core.msgs.{kind}"] = (r.get(f"msgs.{kind}", 0), "count")
        m["experiments.report_s"] = (r["report_s"], "s")
        m["trace.coverage_pct"] = (coverage, "%")
        if off is not None:
            base = off[1]["wall_s"]
            m["trace.overhead_pct"] = ((r["wall_s"] - base) / base * 100.0, "%")
            setup = r["build_s"] + r["init_s"]
            m["sim.events_per_s"] = (ev / (base - setup), "1/s")
        detail["traced"] = r

    def k1_on():
        c = driver(ctx, "lib-k1-telemetry", "run", *des_driver_args(seed), "--telemetry", "on")
        r = c.json()
        if off is not None and (r["events"], r["final_bits"]) != (
                off[1]["events"], off[1]["final_bits"]):
            raise Failure("telemetry capture changed the run's events or estimate")
        return r

    on = operation(ctx, "lib-k1-telemetry", k1_on)
    if on is not None and off is not None:
        base = off[1]["wall_s"]
        m["telemetry.overhead_pct"] = ((on["wall_s"] - base) / base * 100.0, "%")

    def k2():
        c = driver(ctx, "lib-k2", "run", *des_driver_args(seed), "--shards", 2)
        r = c.json()
        check_des(ctx, "run_scenario_des_sharded", 2, r["events"], r["final"], r["truth"])
        return c, r

    sh = operation(ctx, "lib-k2", k2)
    if sh is not None and off is not None:
        c2, r2 = sh
        c1, r1 = off
        m["shard.speedup"] = (c1.wall / c2.wall, "x")
        m["shard.events_ratio"] = (r2["events"] / r1["events"], "ratio")
        m["shard.cpu_overhead"] = (c2.cpu / c1.cpu, "ratio")
        m["shard.worker_busy_pct"] = (r2["worker_cpu_s"] / r2["worker_life_s"] * 100.0, "%")
        m["shard.coord_cpu_s"] = (r2["coord_cpu_s"], "s")
        detail["k2"] = r2

    def figs():
        out = os.path.join(ctx.tmp, "figures-traced")
        shutil.rmtree(out, ignore_errors=True)
        c = driver(ctx, "figures", "figures", "--scale", FIG_SCALE, "--seed", seed, "--out", out)
        got = figures_digest(out)
        if got != ctx.expected["figures-small"][ctx.pool_index]:
            raise Failure(f"figures::by_number: CSV digest {got[:16]} differs from the record")
        return c, c.json()

    fg = operation(ctx, "figures", figs)
    if fg is not None:
        c, r = fg
        for g in ("static", "dynamic", "net", "workload", "table"):
            m[f"figures.{g}_s"] = (r[f"{g}_s"], "s")
        m["experiments.par_eff"] = (c.cpu / (c.wall * ctx.nproc), "ratio")

    env = operation(ctx, "envelope", lambda: envelope(ctx))
    cl = operation(ctx, "cluster", lambda: cluster_unit(ctx, env)) if env else None
    if cl is not None:
        c, r = cl
        sent, recv = r["frames_sent"], r["frames_received"]
        m["node.frames_sent"] = (sent, "count")
        m["node.frames_received"] = (recv, "count")
        m["node.loss_pct"] = ((sent - recv) / sent * 100.0, "%")
        m["node.malformed"] = (r["malformed"], "count")
        m["node.unclean_exits"] = (r["unclean_exits"], "count")
        m["node.cpu_us_per_frame"] = (c.cpu * 1e6 / sent, "us")
        detail["cluster"] = r
    return m, detail


# ------------------------------------------------------------------- main

def measure(ctx, workload, trace):
    if trace:
        return run_traced(ctx, workload)
    if workload == "des-1m":
        return run_des(ctx, 1)
    if workload == "des-1m-k2":
        return run_des(ctx, 2)
    if workload == "figures-small":
        return run_figures(ctx)
    return run_cluster(ctx)


def declared_metrics(trace):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_checkout(root):
    needed = ["Cargo.toml", "Cargo.lock", os.path.join("crates", "experiments", "Cargo.toml"),
              os.path.join("crates", "node", "Cargo.toml")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise SystemExit(
            f"perfbench: {root} is not a checkout of the repository (missing {', '.join(missing)}); "
            "run from the root of a checkout")


def main(argv=None):
    args = parse_args(argv)
    check_checkout(os.getcwd())
    ctx = Ctx(args)
    os.makedirs(ctx.tmp, exist_ok=True)
    build(ctx, traced=bool(args.trace))
    ctx.deadline = time.monotonic() + RUN_BUDGET_S
    host = host_info(ctx)
    started = time.time()
    metrics, detail = measure(ctx, args.workload, args.trace)
    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing and ctx.failed == 0:
        ctx.failed += 1
        ctx.errors.append(f"metrics not measured: {missing}")
    record = {
        "host": host, "workload": args.workload, "seed": args.seed,
        "repro_seed": ctx.pool_seed, "trace": args.trace, "seconds": args.seconds,
        "started": started, "errors": ctx.errors, "detail": detail,
    }
    result = {
        "correct": ctx.failed == 0 and not missing,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed if ctx.attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }
    record["result"] = result
    with open(os.path.join(ctx.work, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("host", "workload", "seed", "repro_seed",
                                               "errors", "detail")}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
