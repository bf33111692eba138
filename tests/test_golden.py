"""The byte-stable report contract, pinned by a recorded verify all run."""

import hashlib
import json
import re
from pathlib import Path

import hooklab.cli as cli

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"
GOLDEN_TEXT = Path(__file__).parent / "golden" / "verify_all.txt"
ELAPSED_LINE = re.compile(rb'^ *"elapsed_ms": [^\n]*,\n', re.M)
# the 8-character millisecond column that ends each verdict line
MS_COLUMN = re.compile(r"[ \d]{5}\d\.\d ms$", re.M)
BENCH_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


def test_verify_all_matches_the_golden_file(tmp_path):
    out = tmp_path / "all.json"
    assert cli.main(["verify", "all", "--json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for record in doc["checks"]:
        del record["elapsed_ms"]
    assert doc == json.loads(GOLDEN.read_text())


def test_verify_all_json_bytes_match_the_golden_file(tmp_path):
    """The raw report, not only its parse: indent, key order and the
    final newline are part of the contract.  Only the elapsed_ms lines
    are dropped."""
    out = tmp_path / "all.json"
    assert cli.main(["verify", "all", "--json", "--out", str(out)]) == 0
    raw, dropped = ELAPSED_LINE.subn(b"", out.read_bytes())
    assert dropped == len(json.loads(GOLDEN.read_text())["checks"])
    assert raw == GOLDEN.read_bytes()


def test_verify_all_text_matches_the_golden_file(tmp_path):
    """verify all as text, the kerov table and the summary line
    included, with the millisecond column of each verdict masked."""
    out = tmp_path / "all.txt"
    assert cli.main(["verify", "all", "--out", str(out)]) == 0
    text, masked = MS_COLUMN.subn("    <ms> ms", out.read_text())
    assert masked == len(json.loads(GOLDEN.read_text())["checks"])
    assert text == GOLDEN_TEXT.read_text()


def test_pooled_sweeps_match_the_golden_file(tmp_path):
    """theorem1, cayley and kerov at --threads 2: the flag is accepted and
    changes no report."""
    golden = json.loads(GOLDEN.read_text())["checks"]
    for check, bound in (("theorem1", "--r 8"), ("cayley", "--r 6"), ("kerov", "--max-size 8")):
        out = tmp_path / f"{check}.json"
        argv = ["verify", check, *bound.split(), "--threads", "2"]
        assert cli.main([*argv, "--json", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["checks"]
        for record in records:
            del record["elapsed_ms"]
        family = [rec for rec in golden if rec["check"].split("/")[0] == check]
        assert records == family


def _benchmark_records(out, argv) -> list:
    """The verdict records of a verify --json run, as the benchmark
    reference keeps them."""
    assert cli.main(["verify", *argv, "--json", "--out", str(out)]) == 0
    keys = ("check", "params", "equal", "lhs_terms", "rhs_terms", "lhs_hash", "rhs_hash")
    records = []
    for c in json.loads(out.read_text())["checks"]:
        rec = {key: c[key] for key in keys}
        if c.get("trace") is not None:
            payload = json.dumps(c["trace"], sort_keys=True).encode()
            rec["trace_sha256"] = hashlib.sha256(payload).hexdigest()
        records.append(rec)
    return records


def test_ceiling_sweeps_match_the_benchmark_reference(tmp_path):
    """cayley r=7 and kerov size 9, the two ceiling runs of the pools-2w
    benchmark workload, give the verdict records it checks against."""
    reference = json.loads(BENCH_REFERENCE.read_text())["workloads"]["pools-2w"]
    for k, argv in ((1, ["cayley", "--r", "7"]), (2, ["kerov", "--max-size", "9"])):
        assert _benchmark_records(tmp_path / f"{argv[0]}.json", argv) == reference[k]


def test_theorem1_r9_matches_the_benchmark_reference(tmp_path):
    """verify theorem1 --r 9, the theorem1-r9 benchmark workload, gives
    the verdict records it checks against."""
    reference = json.loads(BENCH_REFERENCE.read_text())["workloads"]["theorem1-r9"]
    argv = ["theorem1", "--r", "9"]
    assert _benchmark_records(tmp_path / "theorem1.json", argv) == reference[0]


def test_derivations_r8_trace_matches_the_benchmark_reference(tmp_path):
    """verify {pq,root-recurrence,mvl} --r 8 --trace, the
    derivations-r8-trace benchmark workload, gives the verdict records it
    checks against, the hash of every traced summand text included."""
    reference = json.loads(BENCH_REFERENCE.read_text())["workloads"]["derivations-r8-trace"]
    for k, check in enumerate(("pq", "root-recurrence", "mvl")):
        argv = [check, "--r", "8", "--trace"]
        assert _benchmark_records(tmp_path / f"{check}.json", argv) == reference[k]
