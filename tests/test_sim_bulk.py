"""The one bulk Mersenne Twister reader (:mod:`repro.sim.bulk`).

Its exactness is pinned where it is used (``tests/test_flow_fastpath.py``
and ``TestBulkDraws`` in ``tests/test_core_montecarlo.py``); here, the
gate, both reads, both hand-backs, and that no other module seats or
reads back the generator's state.
"""

import random
import re
from pathlib import Path

import pytest

import repro
from repro.analysis.sanitizer import sanitizing
from repro.sim import bulk
from repro.sim.rng import RngRegistry

SRC = Path(repro.__file__).resolve().parent


def test_no_other_module_touches_mersenne_twister_state():
    token = re.compile(r"\b(getstate|setstate|random_raw|MT19937)\b")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "analysis" and path != SRC / "sim" / "bulk.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if token.search(line)
    ]
    assert offenders == []


class TestGate:
    def test_plain_stream_is_seated(self):
        assert bulk.seat(random.Random(1)) is not None

    def test_subclass_is_refused(self):
        class Plain(random.Random):
            pass

        assert bulk.seat(Plain(1)) is None

    def test_sanitizer_and_its_proxy_are_refused(self):
        with sanitizing():
            stream = RngRegistry(3).stream("x")
            assert type(stream) is not random.Random
            assert bulk.seat(stream) is None
            assert bulk.seat(random.Random(1)) is None


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_words_match_getrandbits(count):
    plain, bulk_rng = random.Random(42), random.Random(42)
    assert bulk.words(bulk_rng, count).tolist() == [
        plain.getrandbits(32) for _ in range(count)
    ]
    assert bulk_rng.getstate() == plain.getstate()


@pytest.mark.parametrize("read, used", [(0, 0), (7, 7), (1000, 1000), (1000, 3)])
@pytest.mark.parametrize("hand_back", ["hand_back", "redraw"])
def test_doubles_then_either_hand_back_match_random(read, used, hand_back):
    plain, seated = random.Random(42), random.Random(42)
    reader = bulk.seat(seated)
    assert reader.doubles(read).tolist() == [plain.random() for _ in range(read)]
    getattr(reader, hand_back)(used)
    check = random.Random(42)
    for _ in range(used):
        check.random()
    assert seated.getstate() == check.getstate()

