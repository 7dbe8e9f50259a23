#!/usr/bin/env python3
"""Same-run ratio gates over Google Benchmark JSON.

Absolute times from a CI runner cannot be compared with a committed
baseline captured elsewhere, but two legs of one run share the machine,
the build and the moment, so their ratio can be gated. Each rule names a
leg that must run faster than `bound` times a reference leg of the same
run.

Usage:
  bench_gate.py RESULT.json   check every rule whose legs RESULT.json
                              holds; exit 1 if one fails, or if no rule
                              applied at all.
  bench_gate.py --selftest    run the gate over the bundled pass and fail
                              fixtures in bench_gate_testdata/.
"""

import argparse
import json
import pathlib
import sys

# (fast leg, reference leg, bound): real_time(fast) < bound * real_time(ref).
RULES = [
    # One resident endpoint multiplexing 64 sessions must beat 64 jobs on
    # fresh endpoints back to back; it lost 229 ms to 82 ms while every
    # frame woke every blocked receiver of its party.
    ("BM_MultiplexedSessions/sessions:64/delay_ms:0",
     "BM_SequentialSessions/sessions:64/delay_ms:0", 1.0),
]

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def leg_times(result):
    """Maps each leg (name up to its measurement suffixes) to its real
    time in ns: the median aggregate when repetitions were run, else the
    single iteration run."""
    times = {}
    for bench in result.get("benchmarks", []):
        name = bench.get("run_name", bench["name"])
        leg = name.split("/process_time")[0].split("/real_time")[0]
        is_median = bench.get("aggregate_name") == "median"
        if bench.get("run_type", "iteration") != "iteration" and not is_median:
            continue
        if leg in times and not is_median:
            continue
        times[leg] = bench["real_time"] * UNIT_TO_NS[bench["time_unit"]]
    return times


def check(result):
    """Returns (checked rule count, failure messages)."""
    times = leg_times(result)
    checked, failures = 0, []
    for fast, reference, bound in RULES:
        if fast not in times or reference not in times:
            continue
        checked += 1
        ratio = times[fast] / times[reference]
        line = (f"{fast}: {times[fast] / 1e6:.2f} ms = {ratio:.2f}x "
                f"{reference} ({times[reference] / 1e6:.2f} ms), "
                f"bound < {bound:.2f}x")
        if ratio < bound:
            print("ok   " + line)
        else:
            failures.append(line)
    return checked, failures


def gate(path):
    with open(path, encoding="utf-8") as f:
        checked, failures = check(json.load(f))
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    if checked == 0:
        print(f"{path}: no gated leg pair found", file=sys.stderr)
        return 1
    return 1 if failures else 0


def selftest():
    here = pathlib.Path(__file__).resolve().parent / "bench_gate_testdata"
    problems = []
    for fixture, want_pass in (("pass.json", True), ("fail.json", False)):
        with open(here / fixture, encoding="utf-8") as f:
            checked, failures = check(json.load(f))
        if checked != len(RULES):
            problems.append(f"{fixture}: {checked} of {len(RULES)} rules "
                            "found their legs")
        if (not failures) != want_pass:
            problems.append(f"{fixture}: expected "
                            f"{'pass' if want_pass else 'fail'}")
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    if problems:
        return 1
    print("selftest: ok (pass fixture passes, fail fixture fails)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("result", nargs="?", help="Google Benchmark JSON")
    parser.add_argument("--selftest", action="store_true",
                        help="gate the bundled fixtures instead")
    options = parser.parse_args()
    if options.selftest:
        return selftest()
    if options.result is None:
        parser.error("RESULT.json is required")
    return gate(options.result)


if __name__ == "__main__":
    sys.exit(main())
