"""Runs one workload in this process and prints its measurements as one JSON line.

Started by run.py with single-threaded numerical libraries. Passes of the
workload's ops repeat until the time budget is spent; outputs are checked
after each pass, outside its timed region. With --trace 1 the first half of
the budget runs untraced and the same passes then run again under the
tracer, which gives the per-layer numbers and the tracing overhead.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import curlflux  # noqa: E402
from curlflux import birkhoff_rott  # noqa: E402

from . import workloads  # noqa: E402
from .tracer import Tracer  # noqa: E402

MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.5
LOCAL_WINDOW = 5  # calibration samples per local speed estimate
CALIBRATION_REF_S = 0.006  # median Calibration sample on a 2-vCPU Intel Xeon VM, numpy 2.4.6
BUILD_CALL = re.compile(r"geometry\.(build_\w+|\w+_(region|manifold|patch)|shrink_tangential"
                        r"|shift_transversal)$")
BAND_CALLS = ("geometry.ramp_integral", "geometry.band_area", "geometry.band_mass",
              "geometry.shell_integral")
EVAL_CALLS = ("fields.VectorField.eval", "fields.VectorField.analytic_curl",
              "fields.CatalogEntry.trace_z_plane")
MEASURE_CALLS = ("fields.CurlMeasure.lebesgue_density", "fields.SheetPart.density",
                 "fields.LinePart.density")
ROUTE_CALLS = ("stokes.stokes_tangential", "stokes.stokes_transversal",
               "stokes.boundary_pairing_mass", "stokes.stokes_density")


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "have_numba": bool(birkhoff_rott.HAVE_NUMBA),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


class Calibration:
    """A fixed kernel of small-array numpy calls and interpreter work, timed
    between ops.

    The speed of a shared machine drifts by tens of percent over minutes.
    The kernel's time, taken every CALIBRATE_EVERY_S of workload, tracks that
    drift; an op's latency scaled by CALIBRATION_REF_S over the median of
    the samples nearest to it is the latency it would have had at the
    reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((96, 3))
        self.b = rng.standard_normal((96, 3))
        self.samples: list[float] = []
        self.times: list[float] = []
        self.last = -np.inf  # the first op is preceded by a sample

    def maybe(self) -> None:
        if time.perf_counter() - self.last < CALIBRATE_EVERY_S:
            return
        t = time.perf_counter()
        for _ in range(100):
            np.einsum("ij,ij->i", np.cross(self.a, self.b), self.a)
        acc = 0
        for i in range(20000):
            acc += (i * 7) % 13
        self.last = time.perf_counter()
        self.samples.append(self.last - t)
        self.times.append(self.last)

    def local_factors(self, at, window=LOCAL_WINDOW):
        """REF over the median of the `window` samples nearest each time in `at`."""
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        out = []
        for t in at:
            near = np.argsort(np.abs(times - t))[:window]
            out.append(CALIBRATION_REF_S / float(np.median(samples[near])))
        return np.asarray(out)


class PassRunner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, workload, seed, tracer=None, calibration=None):
        self.workload = workload
        self.calibration = calibration
        self.seed = seed
        self.tracer = tracer
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.slots: list[int] = []
        self.midpoints: list[float] = []
        self.digests: list[list[str]] = []
        self.failures: list[str] = []
        self.raised = 0
        self.attempted = 0
        self.rows = 0
        self.drift: list[float] = []

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def run_pass(self, index, ops=None):
        ops = ops if ops is not None else self.workload.ops(self.seed, index)
        outs = []
        for op in ops:
            if self.calibration:
                self.calibration.maybe()
            if self.tracer:
                self.tracer.op_id = self.attempted + len(outs)
            t = time.perf_counter()
            try:
                with self.span(f"bench.{op.kind}"):
                    out = self.workload.run(op, self.span)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = exc
            self.latencies.append(time.perf_counter() - t)
            self.midpoints.append(0.5 * (t + time.perf_counter()))
            self.slots.append(op.slot)
            outs.append(out)
        self.walls.append(sum(self.latencies[-len(ops):]))
        if self.tracer:
            self.tracer.active = False
        pass_digests = []
        for op, out in zip(ops, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.raised += 1
                self.failures.append(f"{op.kind} raised {type(out).__name__}: {out}")
                pass_digests.append("raised")
                continue
            why = self.workload.check(op, out)
            if why:
                self.failures.append(f"{op.kind} {_label(op)}: {why}")
            pass_digests.append(self.workload.digest(out))
            if hasattr(self.workload, "rows"):
                self.rows += self.workload.rows(out)
            if hasattr(self.workload, "circulation_drift"):
                self.drift.append(self.workload.circulation_drift(out))
        self.digests.append(pass_digests)
        if self.tracer:
            self.tracer.active = True

    def run_for(self, budget, first_ops=None):
        start = time.perf_counter()
        index = 0
        while True:
            t = time.perf_counter()
            self.run_pass(index, first_ops if index == 0 else None)
            index += 1
            cost = time.perf_counter() - t
            if index >= MIN_PASSES and time.perf_counter() - start + cost > budget:
                return index

    def slot_latencies(self, latencies=None) -> list[float]:
        """Each op slot's median latency across passes: one sample per op of
        the list, which a slowdown of the machine in a few passes barely moves."""
        by_slot: dict[int, list[float]] = {}
        for slot, lat in zip(self.slots, self.latencies if latencies is None else latencies):
            by_slot.setdefault(slot, []).append(lat)
        return [statistics.median(v) for _, v in sorted(by_slot.items())]


def _label(op) -> str:
    keys = ("name", "route", "field", "t", "radius", "region", "measure", "n", "step")
    return " ".join(f"{k}={op.params[k]:.4g}" if isinstance(op.params[k], float)
                    else f"{k}={op.params[k]}" for k in keys if k in op.params)


def tail_quantile(n: int) -> float:
    """p90 from 100 samples up; below that the highest quantile with ten
    samples beyond it, and never below the median."""
    return 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)


def end_to_end(runner: PassRunner) -> tuple[dict, dict]:
    """The gated metrics, and the report: raw times, quantile and counts.

    Times come from the slot latencies, so wall_s is the sum over the op list
    and the quantiles are over its ops; in the gated times each op is first
    rescaled to the calibration kernel's reference speed.
    """
    lat_ms = np.asarray(runner.slot_latencies()) * 1e3
    q = tail_quantile(len(lat_ms))
    failed = len(runner.failures)
    raw = {
        "wall_s": (float(np.sum(lat_ms)) / 1e3, "s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_tail_ms": (float(np.percentile(lat_ms, 100 * q)), "ms"),
        "fail_frac": (failed / runner.attempted, "1"),
    }
    speed = runner.calibration.local_factors(runner.midpoints)
    ref_ms = np.asarray(runner.slot_latencies(np.asarray(runner.latencies) * speed)) * 1e3
    raw["op_tail_ref_ms"] = (float(np.percentile(ref_ms, 100 * q)), "ms")
    return {
        "wall_ref_s": (float(np.sum(ref_ms)) / 1e3, "s"),
        "op_p50_ref_ms": (float(np.percentile(ref_ms, 50)), "ms"),
        "ok_frac": (1.0 - failed / runner.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "op_slots": len(lat_ms), "ops_run": len(runner.latencies), "op_tail_q": q,
        "speed_factor_median": float(np.median(speed)),
        "calibration_s": runner.calibration.samples,
        "pass_walls_s": runner.walls}


def per_layer(tracer: Tracer, runner: PassRunner, untraced: PassRunner) -> dict:
    n = len(runner.walls)
    summ = tracer.summary()
    layer_self: dict[str, float] = {}
    for name, rec in summ.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + rec["self_s"]

    def calls(names):
        return sum(summ.get(k, {}).get("calls", 0) for k in names) / n

    def points(prefix):
        return sum(v for k, v in tracer.points.items() if k.startswith(prefix)) / n

    names = list(summ)
    skip = 1 if n > 1 else 0  # the first untraced pass also pays first-call costs
    kernel_s = summ.get("birkhoff_rott.br_velocity", {}).get("incl_s", 0.0)
    out = {
        "quadrature.rules": (calls([k for k in names if k.startswith("quadrature.")]), "count"),
        "quadrature.nodes": (points("quadrature."), "count"),
        "geometry.layer_calls": (calls(["geometry.TangentialCollar.layer"]), "count"),
        "geometry.band_integrals": (calls(BAND_CALLS), "count"),
        "geometry.build_calls": (calls([k for k in names if BUILD_CALL.match(k)]), "count"),
        "fields.eval_calls": (calls(EVAL_CALLS), "count"),
        "fields.eval_points": (sum(tracer.points[k] for k in EVAL_CALLS) / n, "count"),
        "fields.measure_calls": (calls(MEASURE_CALLS), "count"),
        "testfns.eval_points": (points("testfns."), "count"),
        "traces.calls": (calls([k for k in names if k.startswith("traces.")]), "count"),
        "selection.slab_masses": (calls(["selection.measure_slab_mass"]), "count"),
        "stokes.route_calls": (calls(ROUTE_CALLS), "count"),
        "stokes.refusals": (tracer.refusals / n, "count"),
        "sequences.judged": (tracer.judged / n, "count"),
        "sequences.converged_ratio": (tracer.converged / tracer.judged if tracer.judged else 0.0,
                                      "1"),
        "birkhoff_rott.velocity_calls": (calls(["birkhoff_rott.br_velocity"]), "count"),
        "birkhoff_rott.pair_evals": (tracer.pairs / n, "count"),
        "birkhoff_rott.kernel_s": (kernel_s / n, "s"),
        "birkhoff_rott.step_self_s": (summ.get("birkhoff_rott.step", {}).get("self_s", 0.0) / n,
                                      "s"),
        "birkhoff_rott.pairs_per_s": (tracer.pairs / kernel_s if kernel_s else 0.0, "1/s"),
        "birkhoff_rott.circulation_drift": (float(np.mean(runner.drift)) if runner.drift else 0.0,
                                            "1"),
        "cli.emit_s": (summ.get("cli.emit", {}).get("incl_s", 0.0) / n, "s"),
        "cli.rows": (runner.rows / n, "count"),
        "trace.overhead_frac": (sum(runner.walls[skip:]) / sum(untraced.walls[skip:n]) - 1.0,
                                "1"),
    }
    for layer in ("quadrature", "geometry", "fields", "testfns", "traces", "stokes",
                  "sequences", "selection", "cli"):
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / n, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(curlflux.__file__).resolve().parent.parent != src:
        print(f"curlflux imported from {curlflux.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    first_ops = workload.ops(args.seed, 0)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "environment": environment()}
    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = PassRunner(workload, args.seed, calibration=Calibration())
    n_passes = plain.run_for(budget, first_ops)
    runners = [plain]
    if args.trace:
        tracer = Tracer()
        traced = PassRunner(workload, args.seed, tracer)
        tracer.install()
        try:
            for index in range(n_passes):
                traced.run_pass(index)
        finally:
            tracer.uninstall()
        runners.append(traced)
        metrics = per_layer(tracer, traced, plain)
        report["spans"] = tracer.n_spans
    else:
        metrics, extra = end_to_end(plain)
        report.update(extra)
    report.update({
        "passes": n_passes,
        "attempted": sum(r.attempted for r in runners),
        "raised": sum(r.raised for r in runners),
        "failed": sum(len(r.failures) for r in runners),
        "failures": sorted(set(f for r in runners for f in r.failures))[:20],
        "digests": plain.digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
