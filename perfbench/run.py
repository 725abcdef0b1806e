#!/usr/bin/env python3
"""The repository benchmark: fit and serve a CP performance model end to end.

One run builds the program from source (first run only), runs one workload
for --seconds and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, and the run also writes Chrome traces (harness spans,
kernel Profiler phases, the server's sampled request spans) and validates
them, and the server's Prometheus exposition, with cpr_obscheck.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload fit-kripke --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke           # every workload, tiny sizes
  python3 perfbench/run.py --compare A.json B.json

Each run also writes its full result (environment block, every metric with
unit and sample count, the rate points, the checks) to
<build dir>/results/<workload>-seed<seed>-trace<trace>.json. --compare reads
two of those and refuses, naming the differing keys, when their environment
blocks differ in anything but the seed and the code version.
perfbench/METRICS.md documents the workloads, the metrics and which layer
metric moves which end-to-end metric.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
SERVE = os.path.join(BUILD, "cpr", "tools", "cpr_serve")
OBSCHECK = os.path.join(BUILD, "cpr", "tools", "cpr_obscheck")

# Workload sizes. The serve workloads fit the archive they serve during each
# of their set-ups, and time `fits` warm fits of its family before the load
# and as many after it (their fit_s, from two moments of the run, since the
# host's speed drifts within seconds; a cpr-online fit takes about half
# as long as a cpr fit, so it gets more); fit-kripke fits the same size
# repeatedly as its measured work, and repeats its set-up (dataset
# generation alone, about 30 ms) after every fit.
SIZES = {
    "full": {"samples": 8192, "heldout": 4096, "setup_reps": 3,
             "fits": {"serve-miss": 3, "serve-hot-observe": 4}},
    "tiny": {"samples": 1024, "heldout": 256, "setup_reps": 1,
             "fits": {"serve-miss": 1, "serve-hot-observe": 1}},
}
SERVED_MODEL = {"serve-miss": ("cpr", "kripke-cpr"),
                "serve-hot-observe": ("cpr-online", "kripke-online")}
# Where the PREDICT latency is the server's computation, so it drifts with
# the host and is gated at nominal host speed: cache hits. The cache-miss
# latency is mostly the micro-batcher's wait, a timer, and is gated as
# measured (see METRICS.md, "Host-speed correction").
COMPUTE_BOUND_LATENCY = {"serve-hot-observe"}
TRACE_SAMPLE = 16  # the server traces every 16th request in the traced run

# End-to-end figures printed and stored with the gated ones but not listed
# in BENCHMARK.json: predict_p99_us varies too much from run to run on a
# shared machine to gate, the wall times behind the gated figures at nominal
# host speed drift with the host (see METRICS.md), and the others exist on
# one workload only, while BENCHMARK.json lists what every workload emits.
UNGATED_E2E_UNITS = {"predict_p99_us": "us", "setup_wall_s": "s", "fit_wall_s": "s",
                     "predict_wall_p50_us": "us", "max_qps_at_slo": "QPS",
                     "observe_p50_us": "us", "refit_p50_ms": "ms", "served_mlogq": "nats"}
# Per-layer figures that exist only where a server runs (see METRICS.md).
SERVE_LAYER_UNITS = {"serve.admit_us": "us", "serve.batch_wait_us": "us",
                     "serve.predict_us": "us", "serve.flush_us": "us",
                     "serve.request_us": "us", "serve.refit_ms": "ms",
                     "serve.cache_hits": "count", "client.send_lag_us": "us"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds the harness and the tools it drives."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: no program sources next to perfbench/; "
                         "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
                        "perfbench_harness", "cpr_serve", "cpr_obscheck"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_split():
    """(server cpus, client cpus). The load client gets a core of its own:
    the server's refits and OpenMP teams would otherwise starve it and make
    the generator late. The server keeps the other cores, and its OpenMP
    team sizes itself to them."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


def environment_block(args):
    compiler = harness(["env"])
    try:
        describe = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                                   "--tags"], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = ""
    return {
        "nproc": nproc(),
        "serve_cpus": ",".join(map(str, sorted(cpu_split()[0]))),
        "client_cpus": ",".join(map(str, sorted(cpu_split()[1]))),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OMP_WAIT_POLICY": os.environ.get("OMP_WAIT_POLICY", "unset"),
        "CPR_KERNEL": os.environ.get("CPR_KERNEL", "unset"),
        "compiler": compiler["compiler"],
        "cxx_flags": compiler["cxx_flags"],
        "git_describe": describe or "unknown (not a git checkout)",
        "workload": args.workload,
        "seconds": args.seconds,
        "size": args.size,
        "seed": args.seed,
    }


# ------------------------------------------------------------ processes

def harness(argv, env=None, cpus=None, timeout=170):
    """Runs one harness subcommand and returns its JSON result."""
    done = subprocess.run([HARNESS] + argv, capture_output=True, text=True, env=env,
                          timeout=timeout,
                          preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench_harness {argv[0]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    if done.stderr.strip():
        log(done.stderr.strip()[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


class Server:
    """A cpr_serve child on an ephemeral TCP port with default options."""

    def __init__(self, model_dir, work, trace):
        argv = [SERVE, f"--models={model_dir}", "--tcp=0"]
        if trace:
            argv += [f"--trace-sample={TRACE_SAMPLE}",
                     f"--trace-out={os.path.join(work, 'server_trace.json')}",
                     f"--metrics-out={os.path.join(work, 'server_metrics.prom')}"]
        self.stderr_path = os.path.join(work, "server.log")
        self.stderr = open(self.stderr_path, "w")
        cpus = cpu_split()[0]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=self.stderr,
                                     preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            with open(self.stderr_path) as f:
                match = re.search(r"listening on TCP.*port=(\d+)", f.read())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("cpr_serve did not start listening")
            else:
                time.sleep(0.005)

    def request(self, line):
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall((line + "\n").encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    break
                reply += chunk
        return reply.decode().strip()

    def stop(self):
        """SIGTERM drain; returns (exit code, peak RSS in MiB)."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.stderr.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


# ------------------------------------------------------------- workloads

def run_fit_kripke(args, size, work):
    r = harness(["fit-kripke", f"--seed={args.seed}", f"--samples={size['samples']}",
                 f"--heldout={size['heldout']}", f"--seconds={args.seconds}",
                 f"--trace={args.trace}", f"--dir={work}"])
    return {
        "e2e": {
            "setup_s": (r["setup_s"], r["setup_reps"]),
            "setup_wall_s": (r["setup_wall_s"], r["setup_reps"]),
            "fit_s": (r["fit_s"], r["fit_count"]),
            "fit_wall_s": (r["fit_wall_s"], r["fit_count"]),
            "fit_mlogq": (r["fit_mlogq"], size["heldout"]),
            "model_bytes": (r["model_bytes"], 1),
            "predict_p50_us": (r["predict_p50_us"], r["predict_us"]["count"]),
            "predict_wall_p50_us": (r["predict_us"]["p50"], r["predict_us"]["count"]),
            "predict_p99_us": (r["predict_us"]["p99"], r["predict_us"]["count"]),
            "peak_rss_mb": (r["peak_rss_mb"], 1),
        },
        "layers": dict(r.get("layers", {}), **{"apps.generate_s": r["apps.generate_s"]}),
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "checks": {"refits_and_reload_bitwise": int(r["failed"]) == 0},
        "detail": {"samples": r["samples"], "fit_all_s": r["fit_all_s"],
                   "host_reference_all_s": r["host_reference_all_s"],
                   "predict_us": r["predict_us"], "host_reference_s": r["host_reference_s"],
                   "host_reference_nominal_s": r["host_reference_nominal_s"]},
    }


def first_predict_line(model):
    # A non-integral configuration: the load streams are integral, so this
    # warm-up request can never seed a cache entry they would hit.
    return f"PREDICT {model} 32.5,2,32,8,8,0,0,32,8"


def run_serve(args, size, work):
    family, model = SERVED_MODEL[args.workload]
    models = os.path.join(work, "models")
    setup_s, generate_s = [], []
    fixture = None
    server = None
    try:
        for rep in range(size["setup_reps"]):
            if server is not None:
                server.stop()
            shutil.rmtree(models, ignore_errors=True)
            os.makedirs(models)
            last = rep == size["setup_reps"] - 1
            start = time.perf_counter()
            fixture = harness(["fixture", f"--seed={args.seed}",
                               f"--samples={size['samples']}",
                               f"--heldout={size['heldout']}", f"--family={family}",
                               f"--model={model}", f"--dir={models}",
                               f"--trace={int(args.trace and last)}", f"--trace-dir={work}"])
            server = Server(models, work, args.trace and last)
            reply = server.request(first_predict_line(model))
            setup_s.append(time.perf_counter() - start)
            if not reply.startswith("OK "):
                raise RuntimeError(f"first PREDICT failed: {reply}")
            generate_s.append(fixture["apps.generate_s"])
        archive = os.path.join(models, model + ".cprm")
        # fit_s: warm fits after the timed set-ups, with the server idle,
        # and again after the load.
        fit_argv = ["fits", f"--seed={args.seed}", f"--samples={size['samples']}",
                    f"--heldout={size['heldout']}", f"--family={family}",
                    f"--count={size['fits'][args.workload]}"]
        fits = [harness(fit_argv)]
        # The traced run's layer probes run after the timed set-ups, so the
        # traced setup_s never includes them.
        probes = harness(["probes", f"--seed={args.seed}", f"--samples={size['samples']}",
                          f"--family={family}", f"--archive={archive}",
                          f"--trace-dir={work}"]) if args.trace else {}
        # The client runs its in-process reference predictions on one
        # thread, so it leaves the cores to the server.
        env = dict(os.environ, OMP_NUM_THREADS="1")
        c = harness(["client", f"--workload={args.workload}", f"--port={server.port}",
                     f"--seed={args.seed}", f"--seconds={args.seconds}",
                     f"--archive={archive}", f"--model={model}",
                     f"--trace={args.trace}", f"--dir={work}"],
                    env=env, cpus=cpu_split()[1])
        code, rss = server.stop()
        server = None
        fits.append(harness(fit_argv))
    finally:
        if server is not None:
            server.kill()
    fit_all_s = [t for f in fits for t in f["fit_all_s"]]
    host_reference = [t for f in fits for t in f["host_reference_all_s"]]
    # At nominal host speed: see METRICS.md, "Host-speed correction".
    nominal = fits[0]["host_reference_nominal_s"] / statistics.median(host_reference)
    fits_failed = sum(int(f["failed"]) for f in fits)
    p50 = c["predict_us"]["p50"]  # None when no window was valid
    latency_scale = nominal if args.workload in COMPUTE_BOUND_LATENCY else 1.0

    e2e = {
        "setup_s": (statistics.median(setup_s) * nominal, len(setup_s)),
        "setup_wall_s": (statistics.median(setup_s), len(setup_s)),
        "fit_s": (statistics.median(fit_all_s) * nominal, len(fit_all_s)),
        "fit_wall_s": (statistics.median(fit_all_s), len(fit_all_s)),
        "fit_mlogq": (fixture["fit_mlogq"], size["heldout"]),
        "model_bytes": (fixture["model_bytes"], 1),
        "predict_p50_us": (None if p50 is None else p50 * latency_scale,
                           c["predict_us"]["count"]),
        "predict_wall_p50_us": (c["predict_us"]["p50"], c["predict_us"]["count"]),
        "predict_p99_us": (c["predict_us"]["p99"], c["predict_us"]["count"]),
        "peak_rss_mb": (rss, 1),
    }
    if args.workload == "serve-miss":
        # None (null) when no rate point of the search was valid.
        e2e["max_qps_at_slo"] = (c["max_qps_at_slo"], c["rate_points_valid"])
    else:
        e2e["observe_p50_us"] = (c["observe_us"]["p50"], c["observe_us"]["count"])
        e2e["refit_p50_ms"] = (c["refit_ms"]["p50"], c["refit_ms"]["count"])
        e2e["served_mlogq"] = (c["served_mlogq"], c["served_mlogq_count"])
    layers = dict(probes.get("layers", {}))
    layers["apps.generate_s"] = statistics.median(generate_s)
    layers.update({k: v for k, v in c.items() if k.startswith(("serve.", "client."))})
    checks = {
        "refits_bitwise": fits_failed == 0,
        "replies_correct": int(c["failed"]) == 0,
        "server_drained_exit_0": code == 0,
    }
    if args.workload == "serve-miss":
        checks["no_cache_hits"] = bool(c["cache_honest"])
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": int(c["attempted"]) + sum(int(f["attempted"]) for f in fits),
        "failed": int(c["failed"]) + fits_failed + (0 if code == 0 else 1),
        "checks": checks,
        # A late generator invalidates latency windows; it says nothing about
        # the program's outputs, so it is reported, not checked.
        "generator_on_time": bool(c["latency_valid"]),
        "detail": dict({k: c[k] for k in ("predict_us", "rate_points", "refits",
                                          "send_lag_bound_us") if k in c},
                       fit_all_s=fit_all_s, host_reference_all_s=host_reference,
                       host_reference_s=statistics.median(host_reference),
                       host_reference_nominal_s=fits[0]["host_reference_nominal_s"]),
    }


def fit_only_layers():
    # fit-kripke never starts a server: its serve counters are zero by
    # construction, not by measurement.
    return {"serve.batch_size": 0.0, "serve.cache_hit_ratio": 0.0,
            "serve.busy_shed": 0.0, "serve.drift_abs_log_error": 0.0}


def validate_artifacts(work):
    """cpr_obscheck over every trace and metrics file the traced run wrote."""
    results = {}
    for name in sorted(os.listdir(work)):
        flag = {"json": "--trace", "prom": "--metrics"}.get(name.rsplit(".", 1)[-1])
        if flag is None:
            continue
        done = subprocess.run([OBSCHECK, f"{flag}={os.path.join(work, name)}"],
                              capture_output=True, text=True, timeout=60)
        results[name] = done.returncode == 0
        if done.returncode != 0:
            log(f"cpr_obscheck rejected {name}: {done.stderr.strip()}")
    return results


# ------------------------------------------------------------ reporting

def e2e_units(bench):
    return {m["name"]: m["unit"] for m in bench["end_to_end"]}


def print_report(result, bench):
    print(f"perfbench {result['env']['workload']} seed={result['env']['seed']} "
          f"trace={result['trace']}")
    print("environment: " + json.dumps(result["env"], sort_keys=True))
    units = dict(e2e_units(bench), **UNGATED_E2E_UNITS)
    for name, (value, count) in result["e2e"].items():
        shown = "invalid" if value is None else f"{value:.6g}"
        print(f"  e2e   {name:<28} {shown:>16} {units[name]:<6} n={count}")
    print(f"  e2e   {'error_rate':<28} {result['error_rate']:>16.6g} {'ratio':<6} "
          f"n={result['attempted']}")
    print(f"  host  {'reference_s':<28} {result['detail']['host_reference_s']:>16.6g} "
          f"{'s':<6} (nominal {result['detail']['host_reference_nominal_s']:g} s)")
    for p in result["detail"].get("rate_points", []):
        lat = {k: "invalid" if v is None else f"{v:.1f}us" for k, v in p["latency_us"].items()
               if k in ("p50", "p99", "send_lag_p99")}
        print(f"  point qps={p['qps']:<8g} p50={lat['p50']} p99={lat['p99']} "
              f"send_lag_p99={lat['send_lag_p99']} valid={p['valid']} "
              f"meets_slo={p['meets_slo']} sent={p['sent']:g}")
    # Untraced runs carry the serve counters only (the server's METRICS);
    # the traced run adds the probes of every layer.
    layer_units = dict({m["name"]: m["unit"] for m in bench["per_layer"]}, **SERVE_LAYER_UNITS)
    for name in sorted(result["layers"]):
        unit = layer_units.get(name, "")
        print(f"  layer {name:<28} {result['layers'][name]:>16.6g} {unit}")
    if result["trace"]:
        for name, ok in result.get("artifacts", {}).items():
            print(f"  trace {name:<28} {'valid' if ok else 'INVALID'}")
        for name, share in result.get("tracing_overhead", {}).items():
            print(f"  tracing overhead {name:<19} {share:>+10.2%}")
    for name, ok in result["checks"].items():
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}")
    if "generator_on_time" in result:
        print(f"  valid {'generator_on_time':<28} "
              f"{'yes' if result['generator_on_time'] else 'NO: late windows left out'}")


def results_path(workload, seed, trace):
    return os.path.join(BUILD, "results", f"{workload}-seed{seed}-trace{trace}.json")


def run_once(args):
    bench = load_benchmark_json()
    build()
    size = SIZES[args.size]
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment_block(args)
    # For the whole run, idle-spin keeps every core from halting (see
    # harness.cpp), so no timing includes the host waking a virtual CPU.
    spinner = subprocess.Popen([HARNESS, "idle-spin"], stdin=subprocess.PIPE)
    try:
        if args.workload == "fit-kripke":
            result = run_fit_kripke(args, size, work)
            result["layers"].update(fit_only_layers())
        else:
            result = run_serve(args, size, work)
    finally:
        spinner.stdin.close()
        spinner.wait()
    result["env"] = env
    result["trace"] = args.trace
    result["error_rate"] = result["failed"] / max(1, result["attempted"])

    if args.trace:
        result["artifacts"] = validate_artifacts(work)
        result["checks"]["traces_valid"] = all(result["artifacts"].values())
        untraced = results_path(args.workload, args.seed, 0)
        if os.path.isfile(untraced):
            with open(untraced) as f:
                base = json.load(f)["e2e"]
            result["tracing_overhead"] = {
                name: value / base[name][0] - 1.0
                for name, (value, _) in result["e2e"].items()
                if value is not None and name in base and base[name][0]
                and name != "fit_mlogq"}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    keep = os.path.join(BUILD, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(keep, ignore_errors=True)
    if args.trace:
        os.makedirs(keep)
        for name in os.listdir(work):
            if name.endswith((".json", ".prom")):
                shutil.move(os.path.join(work, name), keep)
    shutil.rmtree(work, ignore_errors=True)
    with open(results_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print_report(result, bench)
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        values = result["layers"]
    else:
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        values = {name: value for name, (value, _) in result["e2e"].items()}
    # A latency is None when no window was valid: the generator ran late in
    # every window, so the phase timed the host, not the program.
    missing = [name for name, _ in wanted if values.get(name) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = all(result["checks"].values()) and result["failed"] == 0
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted}}


# ---------------------------------------------------------------- modes

def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    # The seed and the code version may differ: comparing two commits, or the
    # spread over seeds, is what the comparison is for.
    differing = sorted(k for k in set(a["env"]) | set(b["env"])
                       if k not in ("seed", "git_describe")
                       and a["env"].get(k) != b["env"].get(k))
    if differing:
        for key in differing:
            print(f"refused: environment differs in {key}: "
                  f"{a['env'].get(key)!r} vs {b['env'].get(key)!r}", file=sys.stderr)
        return 3
    for name, (value_a, _) in a["e2e"].items():
        value_b = b["e2e"].get(name, [None])[0]
        if value_a is not None and value_b is not None:
            change = (value_b / value_a - 1.0) if value_a else float("nan")
            print(f"{name:<28} {value_a:>14.6g} {value_b:>14.6g} {change:>+9.2%}")
    return 0


def smoke():
    """Every workload at the tiny size, untraced then traced: every metric is
    emitted with its unit, every check holds and every trace validates."""
    bench = load_benchmark_json()
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "5", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=600)
            try:
                out = json.loads(done.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                out = {}
            kind = "per_layer" if trace else "end_to_end"
            wanted = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v.get("unit") for k, v in out.get("metrics", {}).items()}
            ok = done.returncode == 0 and out.get("correct") is True and got == wanted
            print(f"smoke {workload:<18} trace={trace} {'ok' if ok else 'FAILED'}")
            if not ok:
                print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["fit-kripke", "serve-miss", "serve-hot-observe"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
