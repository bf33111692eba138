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
