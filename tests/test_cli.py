import dataclasses
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from chainforge import cli, optimize
from chainforge.cli import main
from chainforge.formats import parse_partition, parse_policy
from chainforge.policy import issued_secrets

SRC = Path(__file__).resolve().parents[1] / "src"

DEMO = """\
elements: a b c d e f g h
covers: b>a c>a d>b d>c e>c f>d g>d g>e h>f h>g
users: a=1 b=1 c=1 d=1 e=1 f=1 g=1 h=1
"""

PART_A = "b>a\ne>c\ng>d\nh>f\n"
PART_B = "b>a\nf>d>c\nh>g>e\n"
PART_C = "g>e>c>a\nh>f>d>b\n"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.policy"
    path.write_text(DEMO)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return dict(
        ln.split(": ", 1) for ln in out.strip().splitlines() if ": " in ln
    )


class TestAnalyze:
    def test_demo(self, capsys, demo_file):
        code, out, _ = run(capsys, "analyze", demo_file)
        assert code == 0
        got = lines_of(out)
        assert got["elements"] == "8"
        assert got["covers"] == "10"
        assert got["width"] == "2"
        assert got["minimal"] == "a"
        assert got["maximal"] == "h"
        assert got["synthetic maximum needed"] == "no"

    def test_singleton(self, capsys, tmp_path):
        path = tmp_path / "one.policy"
        path.write_text("elements: only\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert lines_of(out)["width"] == "1"

    def test_deep_fence(self, capsys, tmp_path):
        k = 1500
        covers = [f"t{i}>b{i}" for i in range(k)] + [f"t{i - 1}>b{i}" for i in range(1, k)]
        labels = [f"t{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
        path = tmp_path / "fence.policy"
        path.write_text(f"elements: {' '.join(labels)}\ncovers: {' '.join(covers)}\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert lines_of(out)["width"] == "1500"

    def test_cycle_names_an_element(self, capsys, tmp_path):
        path = tmp_path / "cyclic.policy"
        path.write_text("elements: a b\ncovers: a>b b>a\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "cycle detected" in err
        assert "'a'" in err or "'b'" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent"))
        assert code == 2

    def test_parse_error_carries_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.policy"
        path.write_text("elements: a b\ncovers: a-b\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 2" in err


class TestPartition:
    def test_demo_report(self, capsys, demo_file, tmp_path):
        out_file = tmp_path / "optimal.partition"
        code, out, _ = run(capsys, "partition", demo_file, "--out", str(out_file))
        assert code == 0
        got = lines_of(out)
        assert got["khat"] == "13"
        assert got["K"] == "13"
        assert got["kmax"] == "2"
        assert got["width"] == "2"
        assert got["chains"] == "2"
        assert got["flow_cost"] == "11"
        assert got["bottom a"] == "size 8 weight 8"
        assert got["bottom b"] == "size 5 weight 5"
        assert got["bottoms_total"] == "size 13 weight 13"
        assert out_file.exists()

    def test_written_partition_reevaluates_identically(self, capsys, demo_file, tmp_path):
        out_file = tmp_path / "optimal.partition"
        code, out, _ = run(capsys, "partition", demo_file, "--out", str(out_file))
        khat = lines_of(out)["khat"]
        code, out, _ = run(capsys, "evaluate", demo_file, str(out_file))
        assert code == 0
        assert lines_of(out)["khat"] == khat

    def test_chain_policy(self, capsys, tmp_path):
        path = tmp_path / "chain.policy"
        path.write_text("elements: lo mid hi\ncovers: mid>lo hi>mid\nusers: lo=2 mid=1 hi=1\n")
        code, out, _ = run(capsys, "partition", str(path))
        got = lines_of(out)
        assert got["chains"] == "1"
        assert got["khat"] == "4"  # every user holds exactly one secret

    def test_400_digit_counts(self, capsys, tmp_path):
        n = 10**399
        path = tmp_path / "huge.policy"
        path.write_text(f"elements: lo mid hi\ncovers: mid>lo hi>mid\nusers: lo={n} mid={n} hi={n}")
        code, out, _ = run(capsys, "partition", str(path))
        assert code == 0
        assert lines_of(out)["khat"] == str(3 * n)

    def test_failed_self_verification_exits_1(self, capsys, demo_file, monkeypatch):
        monkeypatch.setattr(optimize, "verify_result", lambda policy, result: False)
        code, out, err = run(capsys, "partition", demo_file)
        assert code == 1
        assert out == ""
        assert err == "internal error: optimization result failed self-verification\n"

    def test_policy_without_maximum(self, capsys, tmp_path):
        # the synthetic top used internally must not leak into the output
        path = tmp_path / "pair.policy"
        path.write_text("elements: x y\nusers: x=1 y=1\n")
        out_file = tmp_path / "pair.partition"
        code, out, _ = run(capsys, "partition", str(path), "--out", str(out_file))
        assert code == 0
        got = lines_of(out)
        assert got["khat"] == "2"
        assert got["chains"] == "2"
        assert sorted(out_file.read_text().split()) == ["x", "y"]

    def test_unwritable_out_prints_only_the_error(self, capsys, demo_file, tmp_path):
        out_file = tmp_path / "no-such-dir" / "demo.partition"
        code, out, err = run(capsys, "partition", demo_file, "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert str(out_file) in err


class TestEvaluate:
    def test_unknown_phi_label_prints_only_the_error(self, capsys, demo_file, tmp_path):
        part = tmp_path / "ref.partition"
        part.write_text(PART_A)
        code, out, err = run(capsys, "evaluate", demo_file, str(part), "--phi", "h", "--phi", "zz")
        assert code == 2
        assert out == ""
        assert err == "error: unknown label 'zz'\n"

    @pytest.mark.parametrize(
        "text,kmax,total,phi_h",
        [
            (PART_A, "4", "20", "b e g h"),
            (PART_B, "3", "17", "b f h"),
            (PART_C, "2", "13", "g h"),
        ],
    )
    def test_reference_partitions(self, capsys, demo_file, tmp_path, text, kmax, total, phi_h):
        part = tmp_path / "ref.partition"
        part.write_text(text)
        code, out, _ = run(capsys, "evaluate", demo_file, str(part), "--phi", "h")
        assert code == 0
        got = lines_of(out)
        assert got["kmax"] == kmax
        assert got["K"] == total
        assert got["khat"] == total
        assert got["khat_tree"] == total
        assert got["khat_bottoms"] == total
        assert got["phi(h)"] == phi_h

    def test_bottoms_report(self, capsys, demo_file, tmp_path):
        part = tmp_path / "ref.partition"
        part.write_text(PART_A)
        code, out, _ = run(capsys, "evaluate", demo_file, str(part))
        got = lines_of(out)
        assert got["bottom a"] == "size 8 weight 8"
        assert got["bottom c"] == "size 6 weight 6"
        assert got["bottom d"] == "size 4 weight 4"
        assert got["bottom f"] == "size 2 weight 2"
        assert got["bottoms_total"] == "size 20 weight 20"

    def test_invalid_partition_file(self, capsys, demo_file, tmp_path):
        part = tmp_path / "bad.partition"
        part.write_text("g>e>c>a\n")
        code, _, err = run(capsys, "evaluate", demo_file, str(part))
        assert code == 2

    def test_empty_label_in_partition_file(self, capsys, demo_file, tmp_path):
        part = tmp_path / "bad.partition"
        part.write_text("h>g>e>c>a\nf>>d>b\n")
        code, out, err = run(capsys, "evaluate", demo_file, str(part))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: empty label in chain\n"

    def test_poset_without_maximum(self, capsys, tmp_path):
        # the tree formula must agree even when a synthetic top is needed
        policy = tmp_path / "pair.policy"
        policy.write_text("elements: x y\nusers: x=2 y=3\n")
        part = tmp_path / "pair.partition"
        part.write_text("x\ny\n")
        code, out, _ = run(capsys, "evaluate", str(policy), str(part))
        assert code == 0
        got = lines_of(out)
        assert got["khat"] == "5"
        assert got["khat_tree"] == "5"
        assert got["khat_bottoms"] == "5"

    def test_disagreeing_formulas_exit_1(self, capsys, demo_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "issued_secrets_via_bottoms", lambda policy, pi: -1)
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        code, out, err = run(capsys, "evaluate", demo_file, str(part))
        assert code == 1
        assert out == ""
        assert err == "internal error: issued-secret formulas disagree: 13, tree 13, bottoms -1\n"


class TestSetupAndDerive:
    def setup_args(self, demo_file, part, outdir, *extra):
        return [
            "setup", demo_file, str(part), "--seed", "00ff", "--allow-deterministic",
            "--export", str(outdir), *extra,
        ]

    def test_setup_exports_keys_and_bundles(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        code, out, _ = run(capsys, *self.setup_args(demo_file, part, outdir))
        assert code == 0
        assert lines_of(out)["keys"] == "8"
        material = (outdir / "material.txt").read_text()
        assert len(material.strip().splitlines()) == 8
        assert "secret" not in material
        bundle_h = (outdir / "bundle-h.txt").read_text()
        labels = sorted(ln.split()[0] for ln in bundle_h.strip().splitlines()[1:])
        assert labels == ["g", "h"]

    def test_setup_rerun_is_byte_identical(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        one, two = tmp_path / "one", tmp_path / "two"
        run(capsys, *self.setup_args(demo_file, part, one, "--unsafe-export"))
        run(capsys, *self.setup_args(demo_file, part, two, "--unsafe-export"))
        assert (one / "material.txt").read_bytes() == (two / "material.txt").read_bytes()
        assert (one / "bundle-h.txt").read_bytes() == (two / "bundle-h.txt").read_bytes()

    def test_unsafe_export_includes_secrets(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir, "--unsafe-export"))
        material = (outdir / "material.txt").read_text()
        assert len(material.strip().splitlines()) == 16

    def test_derive_matches_export(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir))
        exported = {
            ln.split()[0]: ln.split()[2]
            for ln in (outdir / "material.txt").read_text().strip().splitlines()
        }
        code, out, _ = run(
            capsys, "derive", demo_file, str(part), str(outdir / "bundle-h.txt"), "a"
        )
        assert code == 0
        assert out.strip() == exported["a"]
        assert len(out.strip()) == 64
        code, out, _ = run(
            capsys, "derive", demo_file, str(part), str(outdir / "bundle-h.txt"), "h"
        )
        assert out.strip() == exported["h"]

    def test_derive_unauthorized_exits_3(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir))
        code, _, err = run(
            capsys, "derive", demo_file, str(part), str(outdir / "bundle-f.txt"), "e"
        )
        assert code == 3
        assert "not at or below" in err

    def test_derive_short_secret_exits_2(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir))
        bundle = outdir / "bundle-h.txt"
        lines = bundle.read_text().splitlines()
        lines[1:] = [ln.rsplit(" ", 1)[0] + " ab" for ln in lines[1:]]  # 1-byte secrets
        bundle.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "derive", demo_file, str(part), str(bundle), "a")
        assert code == 2
        assert out == ""
        assert "32 bytes" in err

    @pytest.mark.parametrize(
        "extra",
        ["g secret " + "00" * 32, "zz secret " + "00" * 32],
        ids=["second-secret", "unknown-label"],
    )
    def test_derive_bad_bundle_label_exits_2(self, capsys, demo_file, tmp_path, extra):
        # a second secret for g, or a secret for a label outside the policy
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir))
        bundle = outdir / "bundle-h.txt"
        bundle.write_text(bundle.read_text() + extra + "\n")
        code, out, err = run(capsys, "derive", demo_file, str(part), str(bundle), "a")
        assert code == 2
        assert out == ""
        assert repr(extra.split()[0]) in err

    def test_derive_bad_bundle_line_exits_2(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        bundle = tmp_path / "bundle-h.txt"
        bundle.write_text("bundle h\nfoo bar\n")
        code, out, err = run(capsys, "derive", demo_file, str(part), str(bundle), "a")
        assert code == 2
        assert out == ""
        assert err == "error: bad bundle line: 'foo bar'\n"

    def test_derive_non_hex_secret_exits_2(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir))
        bundle = outdir / "bundle-h.txt"
        lines = bundle.read_text().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " zz"
        bundle.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "derive", demo_file, str(part), str(bundle), "a")
        assert code == 2
        assert out == ""
        assert "bad hex in bundle line" in err

    @pytest.mark.parametrize("label", ["a/b", "a\0b"], ids=["slash", "nul"])
    def test_setup_label_that_cannot_name_a_file_exits_2(self, capsys, tmp_path, label):
        # checked before anything is written: no material, no earlier bundles
        policy = tmp_path / "odd.policy"
        policy.write_text(f"elements: lo {label}\ncovers: {label}>lo\nusers: lo=1 {label}=1\n")
        part = tmp_path / "odd.partition"
        part.write_text(f"{label}>lo\n")
        outdir = tmp_path / "keys"
        code, out, err = run(capsys, *self.setup_args(str(policy), part, outdir))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(label) in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["setup", "derive"])
    def test_hash_too_short_exits_2(self, capsys, demo_file, tmp_path, command):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        if command == "setup":
            argv = self.setup_args(demo_file, part, outdir, "--hash", "md5")
        else:
            run(capsys, *self.setup_args(demo_file, part, outdir))
            argv = ["derive", demo_file, str(part), str(outdir / "bundle-h.txt"), "a",
                    "--hash", "md5"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "too short" in err

    def test_unknown_hash_exits_2(self, capsys, demo_file, tmp_path):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        argv = self.setup_args(demo_file, part, tmp_path / "keys", "--hash", "nosuch")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "nosuch" in err
        assert not (tmp_path / "keys").exists()

    @pytest.mark.parametrize("bad", ["policy", "partition", "bundle"])
    def test_non_utf8_file_exits_2(self, capsys, demo_file, tmp_path, bad):
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        outdir = tmp_path / "keys"
        run(capsys, *self.setup_args(demo_file, part, outdir))
        files = {"policy": demo_file, "partition": str(part),
                 "bundle": str(outdir / "bundle-h.txt")}
        broken = tmp_path / "broken.txt"
        broken.write_bytes(b"elements: a\xff\n")
        files[bad] = str(broken)
        code, out, err = run(
            capsys, "derive", files["policy"], files["partition"], files["bundle"], "a"
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {broken}: not UTF-8 text")

    def test_setup_missing_partition_is_usage_error(self, capsys, demo_file, tmp_path):
        code, _, _ = run(
            capsys, "setup", demo_file, "--seed", "00", "--export", str(tmp_path / "x")
        )
        assert code == 2

    def test_seed_needs_allow_deterministic(self, capsys, demo_file, tmp_path, monkeypatch):
        monkeypatch.delenv("CHAINFORGE_CI", raising=False)
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        code, _, err = run(
            capsys, "setup", demo_file, str(part), "--seed", "00",
            "--export", str(tmp_path / "keys"),
        )
        assert code == 2
        assert "--allow-deterministic" in err

    def test_non_hex_seed_exits_2(self, capsys, demo_file, tmp_path, monkeypatch):
        monkeypatch.delenv("CHAINFORGE_CI", raising=False)
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        code, out, err = run(
            capsys, "setup", demo_file, str(part), "--seed", "zz", "--allow-deterministic",
            "--export", str(tmp_path / "keys"),
        )
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be a hex string\n"
        assert not (tmp_path / "keys").exists()

    def test_ci_mode_requires_seed(self, capsys, demo_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINFORGE_CI", "1")
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        code, _, err = run(
            capsys, "setup", demo_file, str(part), "--system-entropy",
            "--export", str(tmp_path / "keys"),
        )
        assert code == 2
        assert "seed" in err

    def test_ci_mode_accepts_seed_directly(self, capsys, demo_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINFORGE_CI", "1")
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        code, _, _ = run(
            capsys, "setup", demo_file, str(part), "--seed", "00",
            "--export", str(tmp_path / "keys"),
        )
        assert code == 0

    def test_system_entropy_works(self, capsys, demo_file, tmp_path, monkeypatch):
        monkeypatch.delenv("CHAINFORGE_CI", raising=False)
        part = tmp_path / "c.partition"
        part.write_text(PART_C)
        code, out, _ = run(
            capsys, "setup", demo_file, str(part), "--system-entropy",
            "--export", str(tmp_path / "keys"),
        )
        assert code == 0
        assert lines_of(out)["keys"] == "8"


class TestOracle:
    def test_demo_pass(self, capsys, demo_file):
        code, out, _ = run(capsys, "oracle", demo_file)
        assert code == 0
        got = lines_of(out)
        assert got["min_khat"] == "13"
        assert got["partitions_examined"] == "1335"
        assert got["min_chain_count_at_min"] == "2"
        assert got["optimizer_khat"] == "13"
        assert got["verdict"] == "PASS"

    def test_two_antichain_single_partition(self, capsys, tmp_path):
        path = tmp_path / "pair.policy"
        path.write_text("elements: x y\nusers: x=1 y=1\n")
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 0
        assert lines_of(out)["partitions_examined"] == "1"

    def test_over_cap_exits_4(self, capsys, tmp_path):
        path = tmp_path / "big.policy"
        path.write_text("elements: " + " ".join(f"x{i}" for i in range(10)) + "\n")
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 4

    def test_disagreeing_optimizer_fails(self, capsys, demo_file, monkeypatch):
        real = optimize.optimal_partition
        monkeypatch.setattr(
            optimize,
            "optimal_partition",
            lambda policy: dataclasses.replace(real(policy), khat=real(policy).khat + 1),
        )
        code, out, _ = run(capsys, "oracle", demo_file)
        assert code == 1
        got = lines_of(out)
        assert got["optimizer_khat"] == "14"
        assert got["verdict"] == "FAIL"


class TestTotalsOfAnyLength:
    # two 4 300-digit counts sum to 4 301 digits, one past the default
    # limit of Python's int -> str conversion
    COUNT = "9" * 4300
    KHAT = "1" + "9" * 4299 + "8"
    POLICY = f"elements: lo hi\ncovers: hi>lo\nusers: lo={COUNT} hi={COUNT}\n"

    @pytest.fixture
    def huge_file(self, tmp_path):
        path = tmp_path / "huge.policy"
        path.write_text(self.POLICY)
        return str(path)

    def test_partition(self, capsys, huge_file):
        code, out, err = run(capsys, "partition", huge_file)
        assert (code, err) == (0, "")
        khat = lines_of(out)["khat"]
        assert khat == self.KHAT
        policy = parse_policy(self.POLICY)
        pi = parse_partition("hi>lo\n", policy.poset)
        assert int(Decimal(khat)) == issued_secrets(policy, pi)

    def test_evaluate(self, capsys, huge_file, tmp_path):
        part = tmp_path / "huge.partition"
        part.write_text("hi>lo\n")
        code, out, err = run(capsys, "evaluate", huge_file, str(part))
        assert (code, err) == (0, "")
        got = lines_of(out)
        assert got["khat"] == got["khat_tree"] == got["khat_bottoms"] == self.KHAT

    def test_oracle(self, capsys, huge_file):
        code, out, err = run(capsys, "oracle", huge_file)
        assert (code, err) == (0, "")
        got = lines_of(out)
        assert got["min_khat"] == got["optimizer_khat"] == self.KHAT
        assert got["verdict"] == "PASS"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int -> str digit limit"
    )
    def test_digit_limit_restored(self, capsys, huge_file, tmp_path):
        before = sys.get_int_max_str_digits()
        run(capsys, "partition", huge_file)
        assert sys.get_int_max_str_digits() == before
        run(capsys, "partition", str(tmp_path / "missing.policy"))
        assert sys.get_int_max_str_digits() == before

    def test_digit_limit_left_alone(self, capsys, monkeypatch, tmp_path):
        # 5 000-digit counts are read and printed in pieces below the
        # limit; no command sets the process-wide limit
        def refuse(_):
            raise AssertionError("the process-wide int/str digit limit was set")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        count, khat = "1" + "0" * 4998 + "1", "2" + "0" * 4998 + "2"
        policy = tmp_path / "long.policy"
        policy.write_text(f"elements: lo hi\ncovers: hi>lo\nusers: lo={count} hi={count}\n")
        part = tmp_path / "long.partition"
        part.write_text("hi>lo\n")
        code, out, err = run(capsys, "partition", str(policy))
        assert (code, err) == (0, "")
        got = lines_of(out)
        assert (got["khat"], got["flow_cost"]) == (khat, count)
        assert got["bottom lo"] == got["bottoms_total"] == f"size 2 weight {khat}"
        code, out, err = run(capsys, "evaluate", str(policy), str(part))
        assert (code, err) == (0, "")
        got = lines_of(out)
        assert got["khat"] == got["khat_tree"] == got["khat_bottoms"] == khat
        code, out, err = run(capsys, "oracle", str(policy))
        assert (code, err) == (0, "")
        got = lines_of(out)
        assert got["min_khat"] == got["optimizer_khat"] == khat


class TestGen:
    def test_singleton(self, capsys):
        code, out, _ = run(capsys, "gen", "--elements", "1", "--seed", "7")
        assert code == 0
        assert out.startswith("elements: x0")

    def test_zero_density_is_antichain(self, capsys):
        code, out, _ = run(capsys, "gen", "--elements", "6", "--density", "0", "--seed", "7")
        assert code == 0
        assert "covers:" not in out

    def test_seed_determinism(self, capsys):
        _, out1, _ = run(capsys, "gen", "--elements", "9", "--density", "0.4", "--seed", "5")
        _, out2, _ = run(capsys, "gen", "--elements", "9", "--density", "0.4", "--seed", "5")
        _, out3, _ = run(capsys, "gen", "--elements", "9", "--density", "0.4", "--seed", "6")
        assert out1 == out2
        assert out1 != out3

    def test_output_feeds_the_other_commands(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--elements", "7", "--density", "0.5", "--seed", "3")
        path = tmp_path / "gen.policy"
        path.write_text(out)
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 0
        assert lines_of(out)["verdict"] == "PASS"

    @pytest.mark.parametrize("argv", [
        ("--elements", "0"),
        ("--elements", "4", "--density", "3"),
    ])
    def test_out_of_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")

    def test_seed_required(self, capsys):
        code, _, _ = run(capsys, "gen", "--elements", "3")
        assert code == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_python_dash_m_runs_the_cli(self, demo_file):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "chainforge", "analyze", demo_file],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert "width: 2" in proc.stdout.splitlines()

    def test_python_dash_m_cli_module_runs_the_cli(self, demo_file):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "chainforge.cli", "partition", demo_file],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert "khat: 13" in proc.stdout.splitlines()
        assert proc.stderr == ""


class TestMutatedInputs:
    """Seeded mutations of the demo's policy, partition and bundle texts,
    fed in process to every command that reads them: each run exits 0, 2,
    3 or 4 and raises nothing, so no input ends in a traceback."""

    # what the mutations insert: separators, header and bundle words,
    # digits, a label, and a non-ASCII letter
    PIECES = (" ", "\t", "\n", ">", "=", "#", ":", "-", "0", "7", "ff", "x", "a", "h", "é",
              "elements:", "covers:", "users:", "secret")
    # the texts each command reads; the mutated one is drawn from them
    READS = {
        "analyze": ("policy",),
        "partition": ("policy",),
        "oracle": ("policy",),
        "evaluate": ("policy", "partition"),
        "setup": ("policy", "partition"),
        "derive": ("policy", "partition", "bundle"),
    }

    @classmethod
    def mutate(cls, rng, text):
        for _ in range(rng.choice((1, 1, 2, 3))):
            if rng.random() < 0.5:
                # a space-separated token is dropped, repeated or replaced by another
                tokens = text.split(" ")
                k = rng.randrange(len(tokens))
                op = rng.randrange(3)
                if op == 0:
                    del tokens[k]
                elif op == 1:
                    tokens.insert(k, tokens[k])
                else:
                    tokens[k] = rng.choice(tokens)
                text = " ".join(tokens)
                continue
            # a span is dropped, a piece inserted, a line repeated, or a
            # character replaced by a piece
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(4)
            if op == 0:
                text = text[:i] + text[i + rng.randint(1, 4):]
            elif op == 1:
                text = text[:i] + rng.choice(cls.PIECES) + text[i:]
            elif op == 2:
                lines = text.splitlines(keepends=True) or [""]
                k = rng.randrange(len(lines))
                text = "".join(lines[: k + 1] + lines[k:])
            else:
                text = text[:i] + rng.choice(cls.PIECES) + text[i + 1:]
        return text

    def test_every_run_exits_with_a_documented_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINFORGE_CI", "1")
        demo, part = tmp_path / "demo.policy", tmp_path / "demo.partition"
        demo.write_text(DEMO)
        part.write_text(PART_C)
        keys = tmp_path / "keys"
        assert run(capsys, "setup", str(demo), str(part), "--seed", "00", "--export", str(keys))[0] == 0
        valid = {"policy": DEMO, "partition": PART_C, "bundle": (keys / "bundle-h.txt").read_text()}
        paths = {name: tmp_path / f"probe.{name}" for name in valid}
        policy, partition, bundle = (str(paths[name]) for name in ("policy", "partition", "bundle"))
        rng = random.Random(2023)
        codes = {command: set() for command in self.READS}
        for i in range(420):
            command = list(self.READS)[i % len(self.READS)]
            texts = dict(valid)
            mutated = rng.choice(self.READS[command])
            texts[mutated] = self.mutate(rng, texts[mutated])
            for name, text in texts.items():
                paths[name].write_text(text, encoding="utf-8")
            label = rng.choice("abcdefgh")
            argv = {
                "analyze": [policy],
                "partition": [policy],
                "oracle": [policy],
                "evaluate": [policy, partition, "--phi", label],
                "setup": [policy, partition, "--seed", "00", "--export", str(tmp_path / "out")],
                "derive": [policy, partition, bundle, label],
            }[command]
            code = run(capsys, command, *argv)[0]
            assert code in (0, 2, 3, 4), (command, mutated, texts[mutated])
            codes[command].add(code)
        # every command both succeeds and refuses, so the mutations neither
        # break every text nor leave every text valid
        assert all({0, 2} <= got for got in codes.values()), codes
