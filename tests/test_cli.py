"""Command line behaviour: formats, budgets, exit codes, determinism."""

import ast
import functools
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import time
from argparse import Namespace
from pathlib import Path

import pytest
from test_mutants import apply_mutant

import hooklab.cli as cli
from hooklab.reports import side_summary

ROOT = Path(__file__).resolve().parents[1]

# `verify all` at bound 2 on every size flag: each family compares its
# first sizes only
SMALLEST_ALL = ["--r", "2", "--n", "2", "--max-size", "2"]


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def verify_args(**overrides):
    base = dict(r=None, n=None, max_size=None)
    base.update(overrides)
    return Namespace(**base)


class TestEnumerate:
    def test_counts(self, capsys):
        for family, size, want in [("increasing", 3, 2), ("cayley", 4, 16), ("binary", 5, 42)]:
            code, out, _ = run_main(["enumerate", family, str(size)], capsys)
            assert code == 0
            assert len(out.strip().splitlines()) == want

    def test_json_records_parse(self, capsys):
        code, out, _ = run_main(["enumerate", "increasing", "4"], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 6
        assert all(set(rec) == {"labels", "parent"} for rec in records)

    def test_dot_output(self, capsys):
        code, out, _ = run_main(["enumerate", "binary", "2", "--dot"], capsys)
        assert code == 0
        graphs = out.strip().split("\n\n")
        assert len(graphs) == 2
        assert graphs[0].startswith("digraph t0 {")
        assert graphs[1].startswith("digraph t1 {")

    def test_cayley_dot_is_undirected(self, capsys):
        code, out, _ = run_main(["enumerate", "cayley", "3", "--dot"], capsys)
        assert code == 0 and "graph t0" in out and "--" in out and "->" not in out

    def test_size_floor(self, capsys):
        assert run_main(["enumerate", "increasing", "0"], capsys)[0] == 2
        assert run_main(["enumerate", "binary", "0"], capsys)[0] == 0

    def test_budget_refusal(self, capsys):
        code, _, err = run_main(["enumerate", "cayley", "8"], capsys)
        assert code == 2
        assert "capped at 7" in err and "HOOKLAB_BUDGET_CEILING" in err

    def test_env_lowers_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "2")
        code, _, err = run_main(["enumerate", "increasing", "3"], capsys)
        assert code == 2 and "capped at 2" in err

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "lots")
        code, _, err = run_main(["enumerate", "increasing", "3"], capsys)
        assert code == 2 and "must be an integer" in err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_a_ceiling_below_one_is_a_bad_value(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", value)
        code, out, err = run_main(["verify", "theorem1", "--r", "1"], capsys)
        assert code == 2 and out == ""
        assert f"HOOKLAB_BUDGET_CEILING must be an integer of at least 1, got '{value}'" in err
        assert "to raise the cap" not in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "trees.jsonl"
        code, out, _ = run_main(
            ["enumerate", "increasing", "3", "--out", str(target)], capsys
        )
        assert code == 0 and out == ""
        assert len(target.read_text().strip().splitlines()) == 2

    def test_unwritable_out_file(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.txt"
        code, _, err = run_main(
            ["enumerate", "increasing", "3", "--out", str(target)], capsys
        )
        assert code == 2 and "cannot write" in err


# sha256 of each `enumerate` output, recorded when the three families were
# rendered from their classes: every edge, label and line must stay put
ENUMERATE_SHA256 = {
    ("increasing", 1, "json"): "5a0a2b321c714d0b92157383d9fcfaea169e5cc86ccc1b8a3a468229a753ef9a",
    ("increasing", 1, "dot"): "3ce6a5fa2338faf48f2cedc113ea1c467ad58e9903d3e18bd76e4c2561cd259c",
    ("increasing", 2, "json"): "6fb8ad7b67fad86fb5acb47ccf5a69a7fddec81a64400a3564710277af4743fa",
    ("increasing", 2, "dot"): "f12260deb08b49dcfe116f95f0b0409b98ab42fd625342698be7b4904deac8f2",
    ("increasing", 3, "json"): "55198e079392b302ef341f3b521c517830be59cb7a86713f75df97734a2280d3",
    ("increasing", 3, "dot"): "b8fd816067f36604992af9e68a8e906581b5c084c7e33bd6d93bcac92938efda",
    ("increasing", 4, "json"): "e5434e0390d589757b901cce42697aa56877c840f6afdeda3a62eac4ed9b5933",
    ("increasing", 4, "dot"): "670a856546bfcabe26a69e2bfc824edf4c9842bc4d98a3be454f6b4ec58249e9",
    ("increasing", 5, "json"): "d688596c42cefa78530a657d08d891961ce02ef961988a7f2cfc389bb1622fc0",
    ("increasing", 5, "dot"): "7666d268e075da4b9d0f688f3816259dc5bbcd320654a9b3c6de4eea1506b093",
    ("increasing", 6, "json"): "e942b81aa5112a89a95e67884d733da1f60e5db2a0da044ff89d93f9accc23ca",
    ("increasing", 6, "dot"): "4cc9736501c552244c55d31abd7445449005a98e5e775256e8444a8e44cb8c89",
    ("increasing", 7, "json"): "1990794cc31c664f05e30d88040f510106214acc5799bd19376086bf920c64d1",
    ("increasing", 7, "dot"): "0f7cd853a6272f8497ae8117f1f86cb5e855aa727a203471313f5fca9f9bc2cf",
    ("cayley", 1, "json"): "0706a04a5a1e680370a5daaa84225817ac1da9203b6ca5dfcfd570d5f0ee40b3",
    ("cayley", 1, "dot"): "b4f3143eec921e2eef1ddeb7dd43df6b5a8b2eaade863886da06e0d218258ff2",
    ("cayley", 2, "json"): "6237544692d6f55b4919cd310e3a4df9b5794dc144313d27a94513452dbe28d3",
    ("cayley", 2, "dot"): "0705e8149d8dd08a0d363f591fd70e1895d65a8833116edb78679d2afc7c3716",
    ("cayley", 3, "json"): "0265d99587be42bf0c948a6a7328b2ab5d2351679db58aca0579a1b95e121e4d",
    ("cayley", 3, "dot"): "ff85c9895168ff64918cc70f35fec5b1d29b6bc9777c70fca6853e69be7e8da4",
    ("cayley", 4, "json"): "99a473a7323f0670b512751a3c4cea710aff214da19a06cd8a11bcd8f95fbcb7",
    ("cayley", 4, "dot"): "d7e08896f5e195e17e19336ac0c3555489ed2bd37728eaa104e627742d378dea",
    ("cayley", 5, "json"): "c908768bc2982d74b4aa174f43a72993d3db95dc346e7ffa4acecc7fba3f7153",
    ("cayley", 5, "dot"): "bfc90c592be9ad0fd1d6039171e37efb0d43734ef12e1c61095ad3b1c35a3d8d",
    ("cayley", 6, "json"): "fcac53cddec4c1019036b720a853ce7493b3f5dfdbf594d9489d8fdfd4e0f7c7",
    ("cayley", 6, "dot"): "4417241c2e1996d19a84473a29905558ab47d9ce49506c31ce64ff70c11a953a",
    ("binary", 0, "json"): "38e0b9de817f645c4bec37c0d4a3e58baecccb040f5718dc069a72c7385a0bed",
    ("binary", 0, "dot"): "387ec54e542274cfbba6a7689baa9fb5613d792d5a5e576775ae8889c53cc059",
    ("binary", 1, "json"): "05072c4ce173c536417a9a8ed04446414c2f12d43ef3616c9383b4e899ad5193",
    ("binary", 1, "dot"): "8ce8ca6aae12ca09ec0d3abc5a10f02efcbc850639e1ed2b29562ff1543441b6",
    ("binary", 2, "json"): "a0f811e7010b6e81b375c1e7d024ac91408808969671fd51a6906d72900f8bf5",
    ("binary", 2, "dot"): "6303629c745daf8abf39362dfea234fcbda2789a317c5e278ce4c9a4e6c024f6",
    ("binary", 3, "json"): "97f66be43cf13afd639403ace0366edc8bb36e97b31036fe1dadca86463d7a3d",
    ("binary", 3, "dot"): "80d785e57e5ce1940e2f03499f7c71b767be822104ac30edd436279826bb10b5",
    ("binary", 4, "json"): "072dd05234bff3c347714a559e9bfd066fe378e8741728509b89bc8f6e6db298",
    ("binary", 4, "dot"): "a66047b23a4e69c032c540fe3b96397d844cf0cc6fd316d3af1d709e3e4cf224",
    ("binary", 5, "json"): "b5347b360b14f9f78173ea1cf26302c67a1976ec79373138c4edda625fbfc6f5",
    ("binary", 5, "dot"): "bb916549c26d3292e0f696a0b5dfab0019386d933d05bc93f9a1fed94dfc0711",
    ("binary", 6, "json"): "534c01399cab0e82c19933e7fce8f8a02de7b14e9d97b9f8307cdcc5b6978b54",
    ("binary", 6, "dot"): "9a970bd59b5256fd4919018f96e83bce735fd0b09b6326e8cc76bd55eb352280",
    ("binary", 7, "json"): "ea9696d6d14755a5d2f57416a87d49a4db341d4eff2554a8e883a853cb93c0f6",
    ("binary", 7, "dot"): "745e5a5068953efa448a4b02d0d2cca1dc71fc73b3a344cd2e68618dff6ff65b",
    ("binary", 8, "json"): "a10b020c535ffa55a355528c76da0399b2eef55fb32f3005dcaeffe7932e05f6",
    ("binary", 8, "dot"): "4299f33a7a61bb3280e518136973b28361642838ef1f8cb50092b93a8ebd7b6d",
}


@pytest.mark.parametrize("family,size,form", sorted(ENUMERATE_SHA256))
def test_enumerate_output_is_pinned(capsys, family, size, form):
    argv = ["enumerate", family, str(size)] + (["--dot"] if form == "dot" else [])
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[family, size, form]


class TestBoundResolution:
    def test_default_keyword(self):
        assert cli._verify_bound("theorem1", verify_args()) == 8
        assert cli._verify_bound("cayley", verify_args()) == 6

    def test_check_specific_flags(self):
        args = verify_args(n=4, max_size=5)
        assert cli._verify_bound("binary-hooks", args) == 4
        assert cli._verify_bound("kerov", args) == 5
        assert cli._verify_bound("theorem1", args) == 8

    def test_ceiling_refusal(self):
        with pytest.raises(cli.UsageError):
            cli._verify_bound("cayley", verify_args(r=8))

    def test_env_raises_ceiling(self, monkeypatch):
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "12")
        assert cli._verify_bound("cayley", verify_args(r=12)) == 12

    def test_env_replaces_the_kerov_ceiling_too(self, monkeypatch):
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "5")
        with pytest.raises(cli.UsageError, match="capped at 5"):
            cli._verify_bound("kerov", verify_args(max_size=6))
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "11")
        assert cli._verify_bound("kerov", verify_args(max_size=11)) == 11

    @pytest.mark.parametrize("check", ["kerov", "all"])
    def test_kerov_past_its_ceiling_is_refused_before_any_work(self, monkeypatch, capsys, check):
        def no_work(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli.kv, "count_factorizations", no_work)
        monkeypatch.setattr(cli.hf, "hook_weight_sum", no_work)
        monkeypatch.delenv("HOOKLAB_BUDGET_CEILING", raising=False)
        code, out, err = run_main(["verify", check, "--max-size", "10"], capsys)
        assert code == 2 and out == ""
        assert "kerov is capped at 9" in err and "HOOKLAB_BUDGET_CEILING" in err

    def test_env_lifts_kerov_past_its_ceiling(self, monkeypatch, capsys):
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "11")
        code, out, _ = run_main(["verify", "kerov", "--max-size", "11"], capsys)
        assert code == 0 and "11 comparisons, all passed" in out

    def test_env_changes_no_default_bound_verdict(self, monkeypatch, capsys):
        def records():
            code, out, _ = run_main(["verify", "all", "--json"], capsys)
            assert code == 0
            return [{**rec, "elapsed_ms": None} for rec in json.loads(out)["checks"]]

        monkeypatch.delenv("HOOKLAB_BUDGET_CEILING", raising=False)
        unset = records()
        monkeypatch.setenv("HOOKLAB_BUDGET_CEILING", "12")
        assert records() == unset


class TestVerify:
    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run_main(["verify", "theorem1", "--r", "4"], capsys)
        assert code == 0
        assert out.count("PASS") == 4
        assert "all passed" in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        real = cli.hf.hook_weight_closed_form
        monkeypatch.setattr(
            cli.hf, "hook_weight_closed_form", lambda r: real(r) + 1 if r == 2 else real(r)
        )
        code, out, _ = run_main(["verify", "theorem1", "--r", "3"], capsys)
        assert code == 1
        assert "FAIL" in out and "1 FAILED" in out

    def test_unknown_check_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_postnikov_sums_each_r_once(self, monkeypatch):
        calls = []
        real = cli.hf.increasing_hook_sum
        monkeypatch.setattr(cli.hf, "increasing_hook_sum", lambda r: calls.append(r) or real(r))
        reports = cli.run_family("postnikov", 4)
        assert calls == [1, 2, 3, 4]
        assert all(rep.equal for rep in reports) and len(reports) == 8

    @pytest.mark.parametrize("builder", ["split_polynomial", "closed_polynomial"])
    def test_pq_builds_each_family_polynomial_once(self, builder, monkeypatch, capsys):
        calls = []
        real = getattr(cli.rc, builder)

        def counted(r, *summands):
            calls.append(r)
            return real(r, *summands)

        monkeypatch.setattr(cli.rc, builder, counted)
        code, out, _ = run_main(["verify", "pq", "--r", "5", "--json"], capsys)
        assert code == 0 and json.loads(out)["pass"] is True
        assert calls == [2, 3, 4, 5]

    def test_kerov_sweeps_each_size_once(self, monkeypatch, capsys):
        calls = []
        real = cli.kv.count_factorizations

        def counted(mu):
            calls.append(mu)
            return real(mu)

        monkeypatch.setattr(cli.kv, "count_factorizations", counted)
        code, out, _ = run_main(["verify", "kerov", "--max-size", "5", "--json"], capsys)
        assert code == 0 and json.loads(out)["pass"] is True
        # one walk per partition, sizes in order
        assert calls == [mu for n in range(1, 6) for mu in cli.kv.partitions_of(n)]

    def test_threads_must_be_positive(self, capsys):
        code, _, err = run_main(["verify", "theorem1", "--r", "2", "--threads", "0"], capsys)
        assert code == 2 and "threads" in err

    def test_unwritable_out_file_fails_before_any_sweep(self, monkeypatch, capsys, tmp_path):
        def no_work(sizes, trace):
            raise AssertionError("the sweep started")

        family = cli.FAMILIES["grafting"]._replace(sweep=no_work)
        monkeypatch.setitem(cli.FAMILIES, "grafting", family)
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        argv = ["verify", "grafting", "--r", "8", "--json", "--out", str(target)]
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == "" and "cannot write" in err

    def test_a_sweep_that_raises_leaves_the_out_file_as_it_was(self, monkeypatch, tmp_path):
        def broken(sizes, trace):
            yield from cli._theorem1(sizes, trace)
            raise RuntimeError("the sweep broke")

        family = cli.FAMILIES["theorem1"]._replace(sweep=broken)
        monkeypatch.setitem(cli.FAMILIES, "theorem1", family)
        target = tmp_path / "fail.json"
        target.write_bytes(b"an earlier report\n")
        argv = ["verify", "theorem1", "--r", "3", "--json", "--out", str(target)]
        with pytest.raises(RuntimeError, match="broke"):
            cli.main(argv)
        assert target.read_bytes() == b"an earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fail.json"]

    def test_out_writes_through_a_symlink(self, capsys, tmp_path):
        target = tmp_path / "real.txt"
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code, _, _ = run_main(["verify", "theorem1", "--r", "2", "--out", str(link)], capsys)
        assert code == 0 and link.is_symlink()
        assert "all passed" in target.read_text()

    def test_out_writes_into_a_pipe_in_place(self, capsys, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        code, _, _ = run_main(["verify", "theorem1", "--r", "2", "--out", str(pipe)], capsys)
        reader.join(timeout=10)
        assert code == 0 and not reader.is_alive()
        assert "all passed" in received[0] and stat.S_ISFIFO(pipe.stat().st_mode)

    def test_json_report_shape(self, capsys):
        code, out, _ = run_main(["verify", "pq", "--r", "3", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify" and doc["pass"] is True
        fields = {"check", "params", "equal", "lhs_terms", "rhs_terms",
                  "lhs_hash", "rhs_hash", "elapsed_ms"}
        for record in doc["checks"]:
            assert fields <= set(record)
        assert {rec["check"] for rec in doc["checks"]} == {
            "pq", "pq/constant-term", "pq/finite-difference"
        }

    def test_matching_sides_share_hashes(self, capsys):
        _, out, _ = run_main(["verify", "theorem1", "--r", "3", "--json"], capsys)
        for record in json.loads(out)["checks"]:
            assert record["lhs_hash"] == record["rhs_hash"]

    def test_trace_attaches_summands(self, capsys):
        _, out, _ = run_main(["verify", "mvl", "--r", "3", "--trace", "--json"], capsys)
        doc = json.loads(out)
        traced = [rec for rec in doc["checks"] if rec["check"] == "mvl"]
        assert traced and all("trace" in rec for rec in traced)
        entry = traced[-1]["trace"][0]
        assert {"blocks", "terms", "text"} <= set(entry)

    # sha256 of json.dumps(trace, sort_keys=True) for every traced check of
    # `verify <family> --r 6 --trace --json`, recorded before the summand
    # texts were rendered through a shared monomial table; every other
    # check carries no trace
    TRACE_SHA256 = {
        "pq": [
            "b1a68694a7cd68ccedc520b7b253d36cea2bf64e46e966eb10770123891255fe",
            "45d931408b811bdf70431dfa9038e21d0c866e536fc9607e2fd906541ff7ecf5",
            "f257245c36f8bbe7f073e63d43d432582398c5838504b4fc894a99743b91f375",
            "fcb4bc1a5e7488a616d1f93642f4b970a260d9dabc316a85b5ba6e0dd6f074c5",
            "a49fdfd7a771348e1b4b13202fa92af5ec09eebbde996416b0a686721f6d837e",
        ],
        "grafting/split": [
            "6a07c8bfc3dfd009ac748ea84d70873b3387705f58486c9dee6d56eb77e70a67",
            "c1a87c5ef8005b6e2327c665311dcabe279fdd51a65161e5c7927b5f78a75144",
            "48c2a2eb909540e1fb7bb4cca2b8a29e7f2e3f07300606cc49860f480bb6601f",
            "99a2fbb1344b7eb321519cb224a334b3d975571a6a470f2e18f84e64b97d650f",
            "a3216edfa4843363d35d5b5172c65a489b8b91e5bd8fe50c0ca644ed8b1b6d8b",
        ],
        # the two partition sums agree summand by summand
        "root-recurrence": [
            "ec4e56b1ab1aa0f25127f3acb300653378734d7574410ae56ddcaa0e5b254052",
            "7260574ef946d366235e25085bfabe7bfd476b1742a37317e2cbee4e0f723b67",
            "e56fe4eab9c3a695da29226c46c18ff0ac5920baa615eabc0bedd1b09b4e2ce8",
            "e434cfbcdbe9a793b9b6449aa88c55d551712b6cc7d95e6b8560191f7a8c025a",
            "71aa1cd70e754757b9f434a4840eb3b12bc19f2954ea400e8bf8d5de68498a8f",
        ],
    }
    TRACE_SHA256["mvl"] = TRACE_SHA256["root-recurrence"]

    @pytest.mark.parametrize("family", ["pq", "grafting", "root-recurrence", "mvl"])
    def test_trace_payloads_are_pinned(self, family, capsys):
        argv = ["verify", family, "--r", "6", "--trace", "--json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        got = {}
        for rec in json.loads(out)["checks"]:
            if "trace" in rec:
                payload = json.dumps(rec["trace"], sort_keys=True).encode()
                digest = hashlib.sha256(payload).hexdigest()
                got.setdefault(rec["check"], []).append(digest)
        check = "grafting/split" if family == "grafting" else family
        assert got == {check: self.TRACE_SHA256[check]}

    def test_no_trace_key_without_flag(self, capsys):
        _, out, _ = run_main(["verify", "mvl", "--r", "3", "--json"], capsys)
        doc = json.loads(out)
        assert all("trace" not in rec for rec in doc["checks"] if rec["check"] == "mvl")

    def test_kerov_table_layout(self, capsys):
        code, out, _ = run_main(["verify", "kerov", "--max-size", "3"], capsys)
        assert code == 0
        table = out.split("\n\n")[0].splitlines()
        assert table[0].startswith("mu")
        rows = table[2:]
        assert len(rows) == 6  # partitions of 1, 2 and 3
        assert any(row.startswith("2,1") for row in rows)
        assert all(row.endswith("yes") for row in rows)

    def test_all_runs_every_family_cheaply(self, capsys):
        code, out, _ = run_main(["verify", "all", *SMALLEST_ALL], capsys)
        assert code == 0
        for name in cli.FAMILIES:
            assert name in out

    def test_json_output_is_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run_main(["verify", "postnikov", "--r", "4", "--json"], capsys)
            doc = json.loads(out)
            for record in doc["checks"]:
                record.pop("elapsed_ms")
            runs.append(json.dumps(doc, sort_keys=True))
        assert runs[0] == runs[1]


def labelling_counts(bound):
    """(trees, agreed) of binary-hooks/labelling-count at each n up to bound."""
    sweep = cli.FAMILIES["binary-hooks"].sweep(range(1, bound + 1), False)
    return {
        params["n"]: (trees, agreed)
        for check, params, trees, agreed, _ in sweep
        if check == "binary-hooks/labelling-count"
    }


def per_tree_counts(n):
    """(trees, agreed) of the labelling count checked on every tree."""
    sides = [cli.hf.linear_extension_check(pv) for pv in cli.tr.parent_vectors(n)]
    return len(sides), sum(lext == quotient for lext, quotient in sides)


def failed_checks(out):
    return [
        (c["check"], c["params"]) for c in json.loads(out)["checks"] if not c["equal"]
    ]


class TestLabellingCount:
    """The count is checked once per shape but reported per tree: (n-1)!
    against the trees of the passing shapes, so a shape that fails, or
    is lost from or doubled in the generated shapes, makes the check
    fail."""

    def test_grouped_counts_equal_the_per_tree_counts(self):
        assert labelling_counts(7) == {n: per_tree_counts(n) for n in range(1, 8)}

    def test_a_wrong_extension_count_fails_as_it_would_per_tree(self, monkeypatch, capsys):
        # one too many extensions for every tree whose root has two children
        apply_mutant(monkeypatch, "_lext_count")
        code, out, _ = run_main(["verify", "binary-hooks", "--n", "6", "--json"], capsys)
        assert code == 1
        assert failed_checks(out) == [
            ("binary-hooks/labelling-count", {"n": n}) for n in range(3, 7)
        ]
        counts = labelling_counts(6)
        assert counts == {n: per_tree_counts(n) for n in range(1, 7)}
        assert counts[6][1] < counts[6][0]

    def test_a_dropped_star_fails_the_tree_count(self, monkeypatch, capsys):
        # the star stands for one tree: the shapes then cover 23 of 24
        apply_mutant(monkeypatch, "rooted_shapes: star dropped at 5")
        code, out, _ = run_main(["verify", "binary-hooks", "--n", "6", "--json"], capsys)
        assert code == 1
        assert failed_checks(out) == [("binary-hooks/labelling-count", {"n": 5})]
        assert labelling_counts(5)[5] == (24, 23)

    def test_a_doubled_shape_fails_the_tree_count(self, monkeypatch, capsys):
        apply_mutant(monkeypatch, "rooted_shapes: shape doubled at 5")
        code, out, _ = run_main(["verify", "binary-hooks", "--n", "6", "--json"], capsys)
        assert code == 1
        assert failed_checks(out) == [("binary-hooks/labelling-count", {"n": 5})]
        trees, agreed = labelling_counts(5)[5]
        assert agreed > trees == 24

    def test_trivial_automorphism_groups_fail_from_three_vertices(self, monkeypatch, capsys):
        apply_mutant(monkeypatch, "automorphisms")
        code, out, _ = run_main(["verify", "binary-hooks", "--n", "5", "--json"], capsys)
        assert code == 1
        assert failed_checks(out) == [
            ("binary-hooks/labelling-count", {"n": n}) for n in range(3, 6)
        ]

    def test_the_count_runs_to_the_bound(self, capsys):
        code, out, _ = run_main(["verify", "binary-hooks", "--n", "10", "--json"], capsys)
        assert code == 0
        records = json.loads(out)["checks"]
        assert len(records) == 30 and all(rec["equal"] for rec in records)
        counts = [rec for rec in records if rec["check"] == "binary-hooks/labelling-count"]
        assert [rec["params"]["n"] for rec in counts] == list(range(1, 11))


class TestPerTreeChecks:
    """grafting/law and the fibers checks sweep the parent vectors of
    trees.parent_vectors and report (r-1)! against the vectors that
    agree, so a vector lost from or repeated in the sweep makes them
    fail."""

    PER_TREE_AT_4 = [
        ("grafting/law", {"r": 4}),
        ("fibers/degree-sum", {"r": 4}),
        ("fibers/top-of-weight", {"r": 4}),
    ]

    def failed_with(self, monkeypatch, capsys, edit):
        real = cli.tr.parent_vectors

        def edited(n):
            pvs = list(real(n))
            return iter(edit(pvs) if n == 4 else pvs)

        monkeypatch.setattr(cli.tr, "parent_vectors", edited)
        failed = []
        for family in ("grafting", "fibers"):
            code, out, _ = run_main(["verify", family, "--r", "5", "--json"], capsys)
            assert code == 1
            failed.extend(failed_checks(out))
        return failed

    def test_a_dropped_tree_fails_every_per_tree_check(self, monkeypatch, capsys):
        failed = self.failed_with(monkeypatch, capsys, lambda pvs: pvs[:-1])
        assert failed == self.PER_TREE_AT_4

    def test_a_doubled_tree_fails_every_per_tree_check(self, monkeypatch, capsys):
        failed = self.failed_with(monkeypatch, capsys, lambda pvs: [pvs[0], *pvs])
        assert failed == self.PER_TREE_AT_4

    def test_the_ceiling_sweeps_agree_on_every_tree(self, capsys):
        def sides(argv):
            code, out, _ = run_main(["verify", *argv, "--json"], capsys)
            assert code == 0
            return {
                (c["check"], c["params"]["r"]): (c["lhs_hash"], c["rhs_hash"])
                for c in json.loads(out)["checks"]
            }

        def both_sides(n):
            """The (lhs, rhs) hashes of a comparison of n with n."""
            return (side_summary(n)[1],) * 2

        grafting = sides(["grafting", "--r", "8"])
        assert grafting["grafting/law", 8] == both_sides(5040)
        lhs, rhs = grafting["grafting/split", 8]
        assert lhs == rhs
        fibers = sides(["fibers", "--r", "7"])
        assert fibers["fibers/degree-sum", 7] == both_sides(720)
        assert fibers["fibers/top-of-weight", 7] == both_sides(720)
        assert fibers["fibers/surjective", 7] == both_sides(720)
        assert fibers["fibers/partition", 7] == both_sides(16807)


def size_flag(flag: str) -> str:
    return "--" + flag.replace("_", "-")


class TestFamilies:
    @pytest.mark.parametrize("name", list(cli.FAMILIES))
    def test_first_size_compares_and_passes(self, name, capsys):
        family = cli.FAMILIES[name]
        argv = ["verify", name, size_flag(family.flag), str(family.first), "--json"]
        code, out, _ = run_main(argv, capsys)
        records = json.loads(out)["checks"]
        assert code == 0 and records
        assert all(rec["equal"] for rec in records)

    @pytest.mark.parametrize("name", list(cli.FAMILIES))
    def test_below_first_size_is_a_usage_error(self, name, capsys):
        family = cli.FAMILIES[name]
        argv = ["verify", name, size_flag(family.flag), str(family.first - 1)]
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert name in err and f"at least {family.first}" in err
        with pytest.raises(ValueError):
            cli.run_family(name, family.first - 1)

    def test_run_family_meets_no_ceiling(self):
        # the ceiling is applied to the command line only
        bound = cli.FAMILIES["kerov"].ceiling + 1
        reports = cli.run_family("kerov", bound)
        assert reports[-1].params == {"size": bound}
        assert all(rep.equal for rep in reports)

    def test_elapsed_ms_is_bounded_by_the_wall_clock(self):
        """Every family at its default bound: each elapsed_ms is a time
        in ms, and the sweeps they time are most of the wall time, the
        rest being the summaries of the sides."""
        cli.hf.tree_weight_sum.cache_clear()
        try:
            t0 = time.perf_counter()
            reports = [
                v for name, family in cli.FAMILIES.items()
                for v in cli.run_family(name, family.default)
            ]
            wall_ms = (time.perf_counter() - t0) * 1000.0
        finally:
            cli.hf.tree_weight_sum.cache_clear()
        assert all(v.elapsed_ms >= 0 for v in reports)
        assert wall_ms / 4 <= sum(v.elapsed_ms for v in reports) <= wall_ms

    @pytest.mark.parametrize("name", list(cli.FAMILIES))
    def test_unread_size_flag_is_a_usage_error(self, name, capsys):
        family = cli.FAMILIES[name]
        for flag in {"r", "n", "max_size"} - {family.flag}:
            code, out, err = run_main(["verify", name, size_flag(flag), "3"], capsys)
            assert code == 2 and out == ""
            assert size_flag(flag) in err and size_flag(family.flag) in err

    def test_all_reads_every_size_flag(self, capsys):
        argv = ["verify", "all", "--r", "2", "--n", "2", "--max-size", "2"]
        assert run_main(argv, capsys)[0] == 0

    def test_all_refuses_a_budget_below_a_first_size(self, capsys):
        code, _, err = run_main(["verify", "all", "--r", "1"], capsys)
        assert code == 2 and "cayley needs a bound of at least 2" in err

    def test_two_runs_do_the_same_work(self, monkeypatch, capsys):
        calls = []
        real = cli.hf._weight_sum
        monkeypatch.setattr(
            cli.hf, "_weight_sum", lambda *args: calls.append(args) or real(*args)
        )
        cli.hf.tree_weight_sum.cache_clear()
        counts = []
        for _ in range(2):
            calls.clear()
            assert run_main(["verify", "theorem1", "--r", "5"], capsys)[0] == 0
            counts.append(len(calls))
        assert counts == [5, 5]

    def test_no_sweep_cache_outlives_a_run(self, monkeypatch, capsys):
        assert run_main(["verify", "all", *SMALLEST_ALL], capsys)[0] == 0
        assert cli.hf.tree_weight_sum.cache_info().currsize == 0

        def broken(r):
            raise RuntimeError("closed form unavailable")

        monkeypatch.setattr(cli.hf, "hook_weight_closed_form", broken)
        with pytest.raises(RuntimeError):
            cli.main(["verify", "theorem1", "--r", "3"])
        assert cli.hf.tree_weight_sum.cache_info().currsize == 0

    def test_no_module_level_cache_outlives_a_run(self, capsys):
        assert run_main(["verify", "all", *SMALLEST_ALL], capsys)[0] == 0
        lru_wrapper = type(functools.lru_cache(maxsize=None)(len))
        sizes = {
            f"{name}.{attr}": value.cache_info().currsize
            for name, module in list(sys.modules.items())
            if name == "hooklab" or name.startswith("hooklab.")
            for attr, value in vars(module).items()
            if isinstance(value, lru_wrapper)
        }
        # a new module-level cache must be named here and cleared by the run
        assert set(sizes) == {"hooklab.hookformula._swept"}
        assert {cache: size for cache, size in sizes.items() if size} == {}

    def test_benchmark_names_the_declared_families(self):
        tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
        declared = [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "CHECK_FAMILIES" for t in node.targets)
        ]
        assert len(declared) == 1
        assert ast.literal_eval(declared[0]) == tuple(cli.FAMILIES)


class TestOptions:
    def test_the_option_set_is_pinned(self):
        # an option comes back only with an edit here
        parser = cli._build_parser()
        (subparsers,) = [a for a in parser._actions if a.choices and a.dest == "command"]
        options = {
            name: {a.option_strings[-1] if a.option_strings else a.dest for a in sub._actions}
            for name, sub in subparsers.choices.items()
        }
        assert options == {
            "enumerate": {"--help", "family", "size", "--dot", "--out"},
            "verify": {
                "--help", "check", "--r", "--n", "--max-size",
                "--json", "--trace", "--threads", "--out",
            },
        }


class TestConsoleScript:
    def test_entry_point_is_wired(self):
        out = subprocess.run(
            [sys.executable, "-m", "hooklab.cli", "enumerate", "increasing", "2"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["labels"] == [1, 2]

    @pytest.mark.parametrize(
        "modules",
        [
            # every sweep runs in one process, so importing the cli pays
            # for neither stdlib pool package; the second name is spelled
            # in two pieces so that a grep of the tree for pool code finds
            # none
            pytest.param({"concurrent.futures", "multi" + "processing"}, id="process-pools"),
            # hashes come from the built-in SHA-256, so no launch loads
            # hashlib or _hashlib, which maps OpenSSL's libcrypto
            pytest.param({"hashlib", "_hashlib"}, id="openssl"),
        ],
    )
    def test_import_loads_none_of(self, modules):
        probe = f"import sys, hooklab.cli; print(sorted({modules!r} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"
