"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pins  # noqa: E402,F401
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import account  # noqa: E402
import codec  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from nlic.tensor import causal_mask  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def thumbs():
    return corpus.build("thumbs", 5)


@pytest.fixture(scope="module")
def state():
    return codec.State("encode")


def _step_of(height, width, kernel):
    step = np.full((height, width), -1)
    for t, (ii, jj) in enumerate(corpus.wavefront(height, width, kernel)):
        assert np.all(step[ii, jj] == -1)
        step[ii, jj] = t
    assert np.all(step >= 0)
    return step


def _corpus_digest(images) -> str:
    h = hashlib.sha256()
    for im in images:
        h.update(im.name.encode())
        for a in (im.x, *im.x_params, im.y, *im.y_params, im.z):
            h.update(str((a.dtype, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_same_seed_same_corpus_and_container(thumbs):
    assert _corpus_digest(corpus.build("thumbs", 5)) == _corpus_digest(thumbs)
    assert _corpus_digest(corpus.build("thumbs", 6)) != _corpus_digest(thumbs)
    noise = thumbs[1]
    digests = {hashlib.sha256(codec.encode(noise, codec.State("encode"))).hexdigest()
               for _ in range(2)}
    assert len(digests) == 1


@pytest.mark.parametrize("kernel", [5, 7])
def test_mask_a_neighbours_fall_in_earlier_steps(kernel):
    size = 12
    step = _step_of(size, size, kernel)
    half = kernel // 2
    taps = np.argwhere(causal_mask(kernel) > 0) - half
    for i in range(size):
        for j in range(size):
            for di, dj in taps:
                ni, nj = i + di, j + dj
                if 0 <= ni < size and 0 <= nj < size:
                    assert step[ni, nj] < step[i, j]


def test_pixel_predictor_is_causal():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (10, 10, 3), dtype=np.uint8)
    base = corpus.pixel_params(img)
    step = _step_of(10, 10, corpus.KERNEL_X)
    for i0, j0 in [(0, 0), (0, 9), (4, 0), (4, 5), (9, 9)]:
        changed = img.copy()
        changed[i0, j0] ^= 0x55
        params = corpus.pixel_params(changed)
        same = step <= step[i0, j0]
        for a, b in zip(base, params):
            assert np.array_equal(a[same], b[same])


def test_empty_bin_counter_matches_hand_count():
    # cumulative * 2^16 floors to 0, 65535, 65535, 65535, then 65536:
    # bins 1 and 2 get zero counts
    pmf = np.array([1 - 3e-6, 1e-6, 1e-6, 1e-6])
    assert account.empty_bins(pmf) == 2
    assert account.empty_bins(np.full((3, 8), 1 / 8)) == 0


def test_bits_and_counts_repeat_exactly(thumbs, state):
    results = []
    for _ in range(2):
        sink = []
        blob = codec.encode(thumbs[1], state, sink=sink)
        results.append(account.account(thumbs[1], blob, state, sink))
    assert results[0] == results[1]
    counts = results[0]
    assert counts["tables"] == thumbs[1].y.size + thumbs[1].x.size
    assert counts["bytes"] == len(blob)


def test_self_times_add_up_to_each_side(thumbs, state):
    tracer = Tracer()
    tracer.image = 0
    image = thumbs[1]
    blob = codec.encode(image, state, tracer)
    codec.decode(blob, image.y_params, image.x_params, state, tracer)
    totals = {}
    for (_, name), sec in tracer.self_times().items():
        side = name.split(".")[0]
        totals[side] = totals.get(side, 0.0) + sec
    roots = {name: (end - start) * 1e-9 for name, start, end, parent, _ in tracer.spans
             if parent < 0}
    assert totals == pytest.approx(roots, rel=1e-9)


@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_host_clock_rescales_wall_time_by_calibration(slowdown):
    clock = hostspeed.HostClock(calibrate=lambda: slowdown * hostspeed.REFERENCE_S,
                                interval=0.0)
    with clock.span("encode"):
        for _ in range(5):
            with clock.span("coder.symbols"):
                time.sleep(0.001)
    assert clock.wall["encode"] >= 0.005
    assert clock.seconds["encode"] == pytest.approx(clock.wall["encode"] / slowdown)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(corpus, "THUMBS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "thumbs", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((pins.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
