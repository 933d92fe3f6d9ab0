#!/usr/bin/env python3
"""Benchmark of the biasloss engine on synthetic data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``. Inputs come from ``data.make_synthetic`` keyed by ``--seed``.
Each run times the engine's set-up, makes one untimed reference call of the
workload, then repeats the workload's public call for ``--seconds``
seconds and reports medians over those calls. Timings are scaled to a
reference machine speed measured around each call (see calibrate.py), so
that runs made minutes apart on a shared machine compare. Every call is
checked against the reference; an operation (a train step or an eval
batch) fails on an exception, a non-finite loss or a failed check.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics. With ``--trace 1`` the calls alternate between
untraced and traced, and the metrics are the per-layer figures of the
traced calls plus the tracing overhead. Details, spans and the environment
are written to ``.perfbench_out/`` in the checkout. See perfbench/README.md
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

from calibrate import Calibration
from tracer import OP_KEYS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

BATCH = 128
SETUP_REPEATS = 5

WORKLOADS = {
    # the paper's recipe: bias loss, rotation augmentation inline
    "mnist_bias_train": dict(kind="mnist", loss="bias", prefetch=False,
                             n_train=2 * BATCH, n_val=BATCH),
    # 3-channel im2col stem, flip+rotate on the prefetch thread, CE loss
    "cifar10_ce_prefetch_train": dict(kind="cifar10", loss="ce",
                                      prefetch=True, n_train=2 * BATCH,
                                      n_val=BATCH),
    # forward-only read path: eval-mode BN, no backward, no optimizer
    "mnist_eval_profile": dict(kind="mnist", n_eval=4 * BATCH),
}
SMOKE_SIZES = dict(n_train=16, n_val=8, n_eval=16)
SMOKE_BATCH = 8


def load_engine():
    src = ROOT / "src"
    if not (src / "biasloss" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source under {src}")
    sys.path.insert(0, str(src))
    import biasloss
    from biasloss import autodiff, data, diagnostics, layers, losses, train
    return types.SimpleNamespace(
        autodiff=autodiff, data=data, diagnostics=diagnostics, layers=layers,
        losses=losses, train=train,
        modules=[biasloss, autodiff, data, diagnostics, layers, losses, train])


@dataclasses.dataclass
class Call:
    """One public call of a workload and what it produced."""
    run_s: float
    samples_per_s: float
    eval_samples_per_s: float
    final_loss: float
    digest: str
    finite: bool
    speed: float = 1.0  # machine speed around the call, see calibrate.py

    def scaled(self, field):
        """A timing of the call at reference machine speed."""
        value = getattr(self, field)
        return value * self.speed if field == "run_s" else value / self.speed


class TrainWorkload:
    """train.train_run for one epoch, writing runlog and checkpoints."""

    def __init__(self, e, spec, seed, batch, out_dir):
        self.e, self.spec, self.seed, self.batch = e, spec, seed, batch
        kind = spec["kind"]
        self.train_ds = e.data.make_synthetic(kind, spec["n_train"], seed,
                                              "train")
        self.val_ds = e.data.make_synthetic(kind, spec["n_val"], seed, "test")
        self.out_dir = out_dir
        self.batches = (math.ceil(spec["n_train"] / batch)
                        + math.ceil(spec["n_val"] / batch))
        self.profile_batches = 0
        self.setup_images = self.train_ds.images[:batch]

    def config(self, prefetch):
        return self.e.train.TrainConfig(
            loss=self.spec["loss"], epochs=1, batch_size=self.batch,
            dataset=self.spec["kind"], seed=self.seed, augment=True,
            prefetch=prefetch)

    def reference(self):
        # prefetch off, so the check also covers prefetch on == off
        return self.call(prefetch=False)

    def call(self, prefetch=None):
        prefetch = self.spec["prefetch"] if prefetch is None else prefetch
        t0 = time.perf_counter()
        log, _ = self.e.train.train_run(self.config(prefetch), self.out_dir,
                                        self.train_ds, self.val_ds)
        run_s = time.perf_counter() - t0
        train_rows = [r for r in log.rows if r.split == "train"]
        val_rows = [r for r in log.rows if r.split == "val"]
        h = hashlib.sha256()
        for r in log.rows:
            h.update(dataclasses.replace(r, wall_seconds=0.0).csv().encode())
        for name in ("best.ckpt", "final.ckpt"):
            h.update((self.out_dir / name).read_bytes())
        return Call(
            run_s=run_s,
            samples_per_s=len(self.train_ds) * len(train_rows)
            / sum(r.wall_seconds for r in train_rows),
            eval_samples_per_s=len(self.val_ds) * len(val_rows)
            / sum(r.wall_seconds for r in val_rows),
            final_loss=train_rows[-1].loss, digest=h.hexdigest(),
            finite=all(math.isfinite(r.loss) for r in log.rows))


class EvalWorkload:
    """train.evaluate on a checkpoint, then diagnostics.profile over every
    probe of the same model."""

    def __init__(self, e, spec, seed, batch, out_dir):
        self.e, self.seed, self.batch = e, seed, batch
        n = spec["n_eval"]
        self.ds = e.data.make_synthetic("mnist", n, seed, "test")
        self.cfg = e.train.TrainConfig(loss="ce", dataset="mnist",
                                       batch_size=batch, seed=seed)
        self.norm = e.data.default_augment("mnist").normalize
        self.ckpt = self._write_checkpoint(out_dir)
        state, _ = e.train.load_checkpoint(self.ckpt)
        self.model = e.layers.SkipblockNetMicro(self.cfg.model_spec(),
                                                seed=seed)
        self.model.load_state(state)
        self.profile_batch = 2 * batch
        self.profile_batches = math.ceil(n / self.profile_batch)
        self.batches = math.ceil(n / batch) + self.profile_batches
        self.setup_images = self.ds.images[:batch]

    def _write_checkpoint(self, out_dir):
        """One epoch of four SGD steps from the seed's init. After two
        steps the BN running statistics are still so far from the
        activations' that evaluate's loss ranges over 2.3-4.5 across
        seeds; after four it stays within 2.3-2.5."""
        ds = self.e.data.make_synthetic("mnist", 4 * self.batch, self.seed,
                                        "train")
        self.e.train.train_run(
            dataclasses.replace(self.cfg, epochs=1, augment=False), out_dir,
            ds, ds.take(self.batch))
        return out_dir / "final.ckpt"

    def reference(self):
        return self.call()

    def call(self):
        e = self.e
        t0 = time.perf_counter()
        loss, top1 = e.train.evaluate(self.ckpt, self.ds, self.cfg)
        t1 = time.perf_counter()
        prof = e.diagnostics.profile(self.model, self.ds, None,
                                     batch_size=self.profile_batch,
                                     normalize=self.norm, loss_id="ce")
        t2 = time.perf_counter()
        n = len(self.ds)
        csv = prof.to_csv()
        return Call(run_s=t2 - t0, samples_per_s=n / (t2 - t1),
                    eval_samples_per_s=n / (t1 - t0), final_loss=loss,
                    digest=hashlib.sha256(
                        f"{loss!r},{top1!r}\n{csv}".encode()).hexdigest(),
                    finite=math.isfinite(loss) and all(
                        math.isfinite(v) for row in prof.rows
                        for v in row[1:]))


def time_setup(e, images, seed, repeats, cal):
    """Time to first logits: build the model, wire its graph and evaluate
    it on one batch. Returns (median seconds at reference speed, median
    wall seconds, logits all identical and finite)."""
    times, wall, digests, finite = [], [], set(), True
    before = cal.measure()
    for _ in range(repeats):
        t0 = time.perf_counter()
        model = e.layers.SkipblockNetMicro(
            e.layers.MicroNetSpec(in_channels=images.shape[1]), seed=seed)
        out = model.build(e.autodiff.leaf(images))
        logits = e.autodiff.forward(out.logits)
        wall.append(time.perf_counter() - t0)
        after = cal.measure()
        times.append(wall[-1] * cal.speed(before, after))
        before = after
        digests.add(hashlib.sha256(logits.tobytes()).hexdigest())
        finite = finite and bool(np.isfinite(logits).all())
    return (statistics.median(times), statistics.median(wall),
            finite and len(digests) == 1)


def blas_info():
    """BLAS library name and thread count as the library reports it."""
    info = {"name": "unknown", "threads": None,
            "env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if os.environ.get(k) is not None}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def environment(e, seed):
    import importlib.util

    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "seed": seed}


def per_layer(tracer, traced_calls, batches, profile_batches, overhead_pct):
    """Per-layer metrics from the traced calls' spans. Timings are ms per
    batch (a train step, val batch, eval batch or profile batch) unless
    the name says otherwise."""
    s = tracer.summary()
    nb = batches * traced_calls
    empty = {"count": 0, "total": 0.0, "self": 0.0, "flops": 0, "bytes": 0,
             "nodes": 0}

    def total(name):
        return s.get(name, empty)["total"]

    def self_(name):
        return s.get(name, empty)["self"]

    def count(name):
        return s.get(name, empty)["count"]

    def per(value, n, scale=1e3):
        return value * scale / n if n else 0.0

    m = {}
    m["data.wait_ms"] = (per(total("data.next"), count("data.next")), "ms")
    m["data.augment_ms"] = (per(total("data.augment"), count("data.augment")),
                            "ms")
    n_bwd = count("autodiff.backward")
    m["autodiff.forward_ms"] = (per(total("autodiff.forward"), nb), "ms")
    m["autodiff.backward_ms"] = (per(total("autodiff.backward"), n_bwd), "ms")
    m["autodiff.self_ms"] = (per(self_("autodiff.forward")
                                 + self_("autodiff.backward"), nb + n_bwd),
                             "ms")
    m["autodiff.nodes"] = (s.get("autodiff.forward", empty)["nodes"], "count")
    op_time = 0.0
    for key in OP_KEYS:
        fwd, bwd = f"{key}.fwd", f"{key}.bwd"
        op_time += total(fwd) + total(bwd)
        m[f"{key}.fwd_ms"] = (per(total(fwd), nb), "ms")
        if key != "layers.batchnorm.eval":
            m[f"{key}.bwd_ms"] = (per(total(bwd), nb), "ms")
        m[f"{key}.calls"] = (count(fwd) / nb, "count")
        flops = sum(s.get(k, empty)["flops"] for k in (fwd, bwd))
        nbytes = sum(s.get(k, empty)["bytes"] for k in (fwd, bwd))
        m[f"{key}.gflop"] = (flops / 1e9 / nb, "GFLOP_computed")
        m[f"{key}.mbytes"] = (nbytes / 1e6 / nb, "MB_computed")
    m["autodiff.other.fwd_ms"] = (per(total("autodiff.other.fwd"), nb), "ms")
    m["autodiff.other.bwd_ms"] = (per(total("autodiff.other.bwd"), nb), "ms")
    op_time += total("autodiff.other.fwd") + total("autodiff.other.bwd")
    m["losses.self_ms"] = (per(self_("losses.loss"), count("losses.loss")),
                           "ms")
    m["losses.variance_record_ms"] = (
        per(total("losses.variance_record"), count("losses.variance_record")),
        "ms")
    m["train.sgd_ms"] = (per(total("train.sgd_step"),
                             count("train.sgd_step")), "ms")
    n_ckpt = count("train.save_checkpoint")
    m["train.checkpoint_ms"] = (per(total("train.save_checkpoint"), n_ckpt),
                                "ms")
    m["train.checkpoint_bytes"] = (
        s["train.save_checkpoint"]["bytes"] / n_ckpt if n_ckpt else 0.0,
        "bytes")
    m["diagnostics.profile.self_ms"] = (
        per(self_("diagnostics.profile"), profile_batches * traced_calls),
        "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.op_share_pct"] = (per(op_time, total("bench.call"), 100.0), "%")
    return m


def run(args):
    e = load_engine()
    spec = dict(WORKLOADS[args.workload])
    batch = BATCH
    setup_repeats = SETUP_REPEATS
    if args.smoke:
        spec.update({k: v for k, v in SMOKE_SIZES.items() if k in spec})
        batch, setup_repeats = SMOKE_BATCH, 1
    out_dir = OUT / "work" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    cls = EvalWorkload if "n_eval" in spec else TrainWorkload

    cal = Calibration()
    t_setup = time.perf_counter()
    wl = cls(e, spec, args.seed, batch, out_dir)
    setup_s, setup_wall_s, setup_ok = time_setup(
        e, wl.setup_images, args.seed, setup_repeats, cal)
    print(f"set-up done in {time.perf_counter() - t_setup:.1f} s",
          file=sys.stderr)

    attempted = failed = 0
    failures = []
    ref = None

    def attempt(fn):
        nonlocal attempted, failed, ref
        attempted += wl.batches
        try:
            c = fn()
        except Exception:
            failed += wl.batches
            failures.append(traceback.format_exc())
            print(failures[-1], file=sys.stderr)
            return None
        if ref is None and c.finite:
            ref = c.digest
        if not c.finite or c.digest != ref:
            failed += wl.batches
            failures.append(f"check failed: finite={c.finite} "
                            f"digest={c.digest} reference={ref}")
            return None
        return c

    attempt(wl.reference)
    tracer = Tracer(e) if args.trace else None
    plain, traced = [], []
    durations = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    before = cal.measure()
    while True:
        use_trace = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        if use_trace:
            tracer.install()
            try:
                c = attempt(lambda: tracer.call("bench.call", wl.call))
            finally:
                tracer.restore()
        else:
            c = attempt(wl.call)
        after = cal.measure()
        durations.append(time.perf_counter() - t0)
        if c is not None:
            c.speed = cal.speed(before, after)
            (traced if use_trace else plain).append(c)
        before = after
        i += 1
        done = time.perf_counter() + statistics.median(durations) > deadline
        if done and (tracer is None or i >= 2):
            break

    if not plain or (tracer is not None and not traced):
        sys.exit(f"perfbench: no call of {args.workload} succeeded")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def med(calls, field):
        return statistics.median(c.scaled(field) for c in calls)

    def wall_med(calls, field):
        return statistics.median(getattr(c, field) for c in calls)

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "run_s": (med(plain, "run_s"), "s"),
                   "samples_per_s": (med(plain, "samples_per_s"), "1/s"),
                   "eval_samples_per_s": (med(plain, "eval_samples_per_s"),
                                          "1/s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "final_loss": (wall_med(plain, "final_loss"), "nats")}
    else:
        untraced = med(plain, "samples_per_s")
        overhead = 100.0 * (untraced - med(traced, "samples_per_s")) / untraced
        metrics = per_layer(tracer, len(traced), wl.batches,
                            wl.profile_batches, overhead)
    wall = {"setup_s": setup_wall_s,
            **{f: wall_med(plain, f) for f in ("run_s", "samples_per_s",
                                               "eval_samples_per_s")},
            "machine_speed": statistics.median(c.speed for c in plain)}

    if not setup_ok:
        failures.append("set-up logits differ between repeats or are "
                        "not finite")
    correct = failed == 0 and setup_ok
    env = environment(e, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "environment": env,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures,
              "calls": [dataclasses.asdict(c) for c in plain],
              "traced_calls": [dataclasses.asdict(c) for c in traced],
              "calibration_s": cal.times, "wall": wall,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} (failed {failed} of "
          f"{attempted} operations)")
    print(f"calls {len(plain)} untraced, {len(traced)} traced")
    print("wall, not scaled " + json.dumps(wall))
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal input sizes, for the benchmark's own test")
    args = p.parse_args(argv)
    run(args)


if __name__ == "__main__":
    main()
