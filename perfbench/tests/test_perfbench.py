"""Tests of the benchmark's own code: the trace oracle and metric names.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import random
import re
import sys
from pathlib import Path

from pytest import approx

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from pxom.blocks import EmbeddedDataBlock, XomLists  # noqa: E402
from pxom.intervals import ByteInterval, IntervalSet  # noqa: E402
from pxom.monitor import new_monitor, parse_trace  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from traces import make_trace, predict  # noqa: E402

EXEC = [(0x1000, 0x2000)]
FIELDS = ("allowed", "denied", "promotions", "reads",
          "executed_instructions", "read_intensity", "optimization_size")


def lists_of(regular, optimization=()):
    mk = lambda triples: [EmbeddedDataBlock(ByteInterval(s, e), n)
                          for s, e, n in triples]
    return XomLists(regular=mk(regular), optimization=mk(optimization))


def monitor_report(lists, text):
    report = new_monitor(lists, IntervalSet.from_pairs(EXEC)).run_trace(
        parse_trace(text))
    return {k: getattr(report, k) for k in FIELDS}


def hand_lists():
    return lists_of(regular=[(0x1000, 0x1010, 0), (0x1020, 0x1030, 3)],
                    optimization=[(0x1040, 0x1080, 11)])


def test_oracle_matches_monitor_with_promotion_and_denial():
    text = ("R 1000 8\n" * 101          # 101st read promotes the block
            + "R 1020 4\n" * 100        # exactly 100: no promotion
            + "I 500\n"
            + "R 1000 16\n"             # the whole block
            + "R 1044 8  # optimization list\n"
            + "R 100c 5\n"              # one byte past 0x1010: denied
            + "R 1020 4\nI 100\n")      # after the denial: not counted
    events = parse_trace(text)
    lists = hand_lists()
    expected = predict(events, lists)
    assert expected == {"allowed": 203, "denied": 1, "promotions": 1,
                        "reads": 204, "executed_instructions": 500,
                        "read_intensity": 204 / 500, "optimization_size": 2}
    assert monitor_report(lists, text) == expected


def test_oracle_matches_monitor_on_first_read_denied():
    text = "R 1800 4\nR 1000 1\nI 7\n"
    expected = predict(parse_trace(text), hand_lists())
    assert expected["denied"] == 1 and expected["allowed"] == 0
    assert expected["read_intensity"] is None
    assert monitor_report(hand_lists(), text) == expected


def random_lists(rng):
    blocks, va = [], 0x1000
    while len(blocks) < 40:
        va += rng.randint(1, 32)
        end = va + rng.randint(1, 80)
        blocks.append((va, end, rng.choice((0, 2, 11, 20))))
        va = end
    return lists_of(regular=[b for b in blocks if b[2] <= 10],
                    optimization=[b for b in blocks if b[2] > 10])


def test_oracle_matches_monitor_on_generated_traces():
    for seed in range(6):
        rng = random.Random(seed)
        lists = random_lists(rng)
        text = make_trace(lists, IntervalSet.from_pairs(EXEC), rng,
                          reads=2000, hot=seed % 3)
        expected = predict(parse_trace(text), lists)
        assert expected["denied"] == 1
        assert expected["allowed"] == expected["reads"] - 1 == 1999
        assert (expected["promotions"] > 0) == (seed % 3 > 0)
        assert monitor_report(lists, text) == expected


def test_make_trace_is_seeded():
    lists = random_lists(random.Random(9))
    ranges = IntervalSet.from_pairs(EXEC)
    a = make_trace(lists, ranges, random.Random(4), reads=300, hot=2)
    b = make_trace(lists, ranges, random.Random(4), reads=300, hot=2)
    c = make_trace(lists, ranges, random.Random(5), reads=300, hot=2)
    assert a == b != c


def test_interval_helpers_match_byte_sets():
    rng = random.Random(3)
    as_set = lambda pairs: {x for s, e in pairs for x in range(s, e)}
    for _ in range(50):
        a = workloads.merge([(s, s + rng.randint(0, 9))
                             for s in rng.sample(range(100), 8)])
        b = workloads.merge([(s, s + rng.randint(0, 9))
                             for s in rng.sample(range(100), 8)])
        assert as_set(workloads.intersect(a, b)) == as_set(a) & as_set(b)
        assert as_set(workloads.subtract(a, b)) == as_set(a) - as_set(b)
        assert workloads.total(a) == len(as_set(a))


def test_speed_scales_by_the_loop_runs_around_a_span():
    speed = workloads.Speed()
    nominal = workloads.REF_NOMINAL_S
    # loop runs: before the span at the nominal speed, one inside it at
    # half speed, after it at half speed
    speed.blocks = [(0.0, 1.0, nominal), (3.0, 4.0, 2 * nominal),
                    (7.0, 7.5, 2 * nominal)]
    mean = (nominal + 2 * nominal + 2 * nominal) / 3
    assert speed.scaled((2.0, 6.0)) == approx((4.0 - 1.0) * nominal / mean)
    # a span between two runs is scaled by those two alone
    assert speed.scaled((4.5, 6.5)) == approx(2.0 / 2)
    assert speed.scaled((1.0, 2.0)) == approx(1.0 / 1.5)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9_.-]+")
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", layers.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
        for metric in declared:
            assert name.fullmatch(metric), metric
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
