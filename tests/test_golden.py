"""The byte-stable report contract, pinned by a recorded verify all run."""

import json
from pathlib import Path

import hooklab.cli as cli

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"


def test_verify_all_matches_the_golden_file(tmp_path):
    out = tmp_path / "all.json"
    assert cli.main(["verify", "all", "--json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for record in doc["checks"]:
        del record["elapsed_ms"]
    assert doc == json.loads(GOLDEN.read_text())


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
