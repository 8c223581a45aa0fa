"""Entropy-coding benchmark for nlic.

    python3 perfbench/run.py --workload smooth --seed 1 --seconds 20 --trace 0

Builds the workload's corpus from the seed, then encodes, decodes and checks
every image in whole passes until ``--seconds`` have elapsed, with at least
one pass. The last line of stdout is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics from spans with ``--trace 1``.
``encode_s``, ``decode_s`` and ``setup_s`` are corrected for the host's
speed (see ``hostspeed.py``); the plain wall medians are printed on the
``#`` line. The lines before that give each image's container sha256 and
whether it matches the digest recorded for that seed in ``digests.json``; a
changed digest is reported, not counted as a failure.
"""

import pins  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import account
import codec
import corpus
import hostspeed
from spans import NO_TRACE, SIDES, Tracer

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # kept for verifying claims; never used while tuning
# Fresh-process set-up probes, half before and half after the measured passes.
SETUP_REPEATS = 10
HERE = Path(__file__).resolve().parent
OUT_DIR = pins.ROOT / ".bench_out"
LAYERS = ("entropy.build_cdf", "entropy.gmm_pmf_table", "entropy.determinize",
          "coder.symbols", "coder.container", "bench.other")


def probe_setup(repeats: int) -> list[float]:
    """Corrected seconds each of ``repeats`` fresh processes takes to import
    nlic and build the per-run state.

    Each probe calibrates itself: a calibration in this process would overlap
    the child's start or exit on the other vCPU and read the contention."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, check=True,
                              timeout=120, cwd=pins.ROOT)
        elapsed, cal = map(float, done.stdout.split()[-2:])
        times.append(hostspeed.corrected(elapsed, cal, cal))
    return times


def code_image(image, enc_state, dec_state, tracer, sink):
    """(blob, encode seconds, decode seconds, round trip exact)."""
    t0 = time.perf_counter()
    blob = codec.encode(image, enc_state, tracer, sink)
    t1 = time.perf_counter()
    z, y, x = codec.decode(blob, image.y_params, image.x_params, dec_state, tracer)
    t2 = time.perf_counter()
    exact = (np.array_equal(z, image.z) and np.array_equal(y, image.y)
             and np.array_equal(x, image.x))
    return blob, t1 - t0, t2 - t1, exact


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("bpp", "bpp"), ("_frac", "frac"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    return "count"


def median_of_passes(passes: list[dict], key: str) -> float:
    return statistics.median(statistics.fmean(p[key]) for p in passes)


def run(workload: str, seed: int, seconds: float, traced: bool):
    images = corpus.build(workload, seed)
    setup = [] if traced else probe_setup(SETUP_REPEATS // 2)
    tracer = Tracer() if traced else NO_TRACE
    enc_state = codec.State("encode", tracer)
    dec_state = codec.State("decode", tracer)
    clock = hostspeed.HostClock()

    blobs: dict[str, bytes] = {}
    totals = Counter()
    passes: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times = {f"{side}{kind}": [] for side in SIDES for kind in ("", ".wall", ".traced")}
        for n, image in enumerate(images):
            attempted += 1
            try:
                blob, _, _, exact = code_image(image, enc_state, dec_state, clock, None)
                for side in SIDES:
                    times[side].append(clock.seconds[side])
                    times[side + ".wall"].append(clock.wall[side])
                if traced:
                    sink = [] if not passes else None
                    tracer.image = len(passes) * len(images) + n
                    again, enc_s, dec_s, exact_again = code_image(
                        image, enc_state, dec_state, tracer, sink)
                    tracer.image = -1
                    times["encode.traced"].append(enc_s)
                    times["decode.traced"].append(dec_s)
                    exact = exact and exact_again and again == blob
                    if sink is not None:
                        totals.update(account.account(image, blob, enc_state, sink))
            except Exception:  # any raise is a failed image; keep measuring
                traceback.print_exc()
                failed += 1
                continue
            # the same image must code to the same bytes on every pass
            if not exact or blobs.setdefault(image.name, blob) != blob:
                print(f"round trip failed: {image.name}", file=sys.stderr)
                failed += 1
        passes.append(times)
    elapsed = time.perf_counter() - start
    if not traced:
        setup += probe_setup(SETUP_REPEATS - len(setup))

    report_digests(workload, seed, images, blobs)
    print(f"# workload={workload} seed={seed} blas_threads={pins.BLAS_THREADS} "
          f"images={len(images)} passes={len(passes)} elapsed_s={elapsed:.1f} "
          f"encode_wall_s={median_of_passes(passes, 'encode.wall'):.4f} "
          f"decode_wall_s={median_of_passes(passes, 'decode.wall'):.4f}")

    if failed == attempted:
        return attempted, failed, {}
    if not traced:
        pixels = sum(im.height * im.width for im in images)
        metrics = {
            "setup_s": statistics.median(setup),
            "encode_s": median_of_passes(passes, "encode"),
            "decode_s": median_of_passes(passes, "decode"),
            "bpp": 8.0 * sum(len(b) for b in blobs.values()) / pixels,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "roundtrip_ok_frac": (attempted - failed) / attempted,
        }
    else:
        metrics = layer_metrics(tracer, passes, len(images))
        metrics.update(account.layer_metrics(totals, len(images)))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload}-{seed}.jsonl")
    return attempted, failed, metrics


def report_digests(workload: str, seed: int, images, blobs: dict[str, bytes]) -> None:
    """Print each container's sha256 and how it compares with digests.json."""
    refs = json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed), {})
    for image in images:
        blob = blobs.get(image.name, b"")
        digest = hashlib.sha256(blob).hexdigest()
        status = "none" if image.name not in refs else (
            "same" if refs[image.name] == digest else "changed")
        print(f"image {image.name} bytes {len(blob)} sha256 {digest} reference {status}")


def layer_metrics(tracer: Tracer, passes: list[dict], images: int) -> dict[str, float]:
    """Per-image self times by side and layer, median over passes."""
    self_times = tracer.self_times()
    per_pass = [Counter() for _ in passes]
    for (image, name), sec in self_times.items():
        if image >= 0:
            per_pass[image // images][name] += sec / images
    m = {}
    for side in SIDES:
        for layer in LAYERS:
            name = f"{side}.{layer}"
            m[name + "_s"] = statistics.median(p[name] for p in per_pass)
        m[f"{side}.entropy.prior_pmf_table_s"] = self_times[-1, f"{side}.entropy.prior_pmf_table"]
        m[f"{side}.traced_s"] = median_of_passes(passes, f"{side}.traced")
    # traced over untraced time of the same pass, whose runs are adjacent
    m["trace.overhead_frac"] = statistics.median(
        sum(p["encode.traced"] + p["decode.traced"]) / sum(p["encode.wall"] + p["decode.wall"])
        for p in passes) - 1.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    attempted, failed, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
