"""The benchmark's containers, pinned: every image of the three workloads,
at the default seed 1 and the held-out seed 7919, encodes through
`perfbench/codec.py` to the sha256 recorded here.

`perfbench/digests.json` still holds the containers of the benchmark's
first version, so a benchmark run reports every image as changed; this
test is what shows that a change to `nlic` keeps the coded bytes. It loads
`perfbench/corpus.py` and `perfbench/codec.py` as they are and writes
nothing under `perfbench/`."""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    ("smooth", 1): {
        "smooth": "17de5c408df8487a51c67c2bd7756e426f9f0b99f946debd1c9d4df405586dc2"},
    ("noise", 1): {
        "noise": "73793b7f176c83adc980bb968eb819c8f6e393c299261090b3f34e28db91b5dd"},
    ("thumbs", 1): {
        "thumb0-smooth": "cd01892eb8cc3ba2e32823d49230edc9ee4b4facca82c4b34cd260e38ccc1a74",
        "thumb1-noise": "1bbd0ebddf01816fb039b6bb7cccb1659d2dd6abc1ccf810e996c0702e732acd",
        "thumb2-smooth": "1842574c88ffb88b8ff072a329334cacce6462b1a05113682f0438a5947c3a40",
        "thumb3-noise": "b4b046eaba9bae4ffba6618ff4d1cf8fc66a2c635bb563cd77d5688bd0443fbc"},
    ("smooth", 7919): {
        "smooth": "58a729d3c79d8c4d1678964e482f723ef2f46ba447c24c2fc3b2dd5531d02f7c"},
    ("noise", 7919): {
        "noise": "3a20e5ab97de7bee4e0630c8681f22c1256d15a7432f47862ed02b2a3eb9d74e"},
    ("thumbs", 7919): {
        "thumb0-smooth": "49406e043de8a652cae5175a2d6c382655cd1427560a50d3b0a790e5c1e78ed0",
        "thumb1-noise": "9383e95b0639e79d1706f017648257125df38221accad202ca6a4da746d252ae",
        "thumb2-smooth": "8a299be28a055f3d5d712b4cb6f3feca73b4bc3a5ce39999bf0403a3753846e5",
        "thumb3-noise": "951d0febe47570ec635a6daa9288fdd27daf5431f78c3ff63bd7f9c6bc22e4e3"},
}


@pytest.fixture(scope="module")
def bench():
    """perfbench's corpus and codec modules, imported from source with no
    bytecode written; codec imports corpus and spans by their bare names."""
    dont_write = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("corpus"), importlib.import_module("codec")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("workload", ["smooth", "noise", "thumbs"])
def test_containers_pinned(bench, workload, seed):
    corpus, codec = bench
    state = codec.State("encode")
    got = {image.name: hashlib.sha256(codec.encode(image, state)).hexdigest()
           for image in corpus.build(workload, seed)}
    assert got == DIGESTS[workload, seed]
