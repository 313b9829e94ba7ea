import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import listprivacy
from listprivacy import errors, instance_to_text, uniform_qr, matrix_to_text
from listprivacy.catalog import instance as catalog_instance
from listprivacy.cli import main

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")

# SHA-256 of `oracle NAME --rho j/10` stdout, j = 0..10, in that order.
ORACLE_STDOUT_SHA256 = {
    "skew7": (
        "855a290dc5283a89c30d3608c15d63ea57cd99ae79065fd6a8447e913e3c0656",
        "4969270de7f9be4d9f90cdc7c40efc0557a4dd19c48525f127c4800a4c220ebc",
        "dd04fc6063913beaf1cee11a04adc967a587930c140c87eac12c9362c6c7cd94",
        "43b8366701d9f99fb4dc6c065aab90636943d62bcb53d3f45b28117d913cba40",
        "cf5a70b098b0c1aaa57ab32b494354955ef5063ea41ede2956fae544c8e020a1",
        "5f0b2bf5365fb546a5ba16a24f0f95a9e9cb64125364c67b70dff7f344f75190",
        "c3bf63a83c1e06e0c514b678a4bcfc27b18fdd6eea22db425afc1bcca9835409",
        "74162cef4e6790bd6a13b12bd228569663ce3150aa1e7e0961d221a63aa7ee5e",
        "32980004d90b2b18bd039823c65e827df95b784cd54f345caab00835b3d40882",
        "d8e6867f9322ebf4309efd954e4c88e4497fe3f65579be0d7a0c952924e0cdb3",
        "a95f3e01dd96f3fe008697da03a1e7a48a2de60194db4ca3b1faeddc7e3c2752",
    ),
    "uniform4": (
        "5aa0749c5c808413d519024936479d0d2c2ed50bd07504b7e3193292753e243a",
        "a3f34f9ee5dc13fe21c8db8d0bcf6990d22d208354d3b2300f049a34c81e0f57",
        "07dbec8ae0e3e44b5bc209e92b0d728f6ce9d1b9e1925a8e2f0330e9f7d2a2be",
        "8879097a8828db8d8a2f51bcec35c275f69b1ae7f142efe775698378d5eee1dd",
        "0fa39e327e8e01c5bf9f0834a0450c619ed32b8144d154672bb7356ced1439b8",
        "17e4f5d304991dddfe127da7c181d6d290f0e733ce84956f2b274bae2b01036b",
        "4ad7be45b09e8879aa1e76c45cb4508528dc8719ab574765a9ec3b6444d05f3a",
        "99455b3780e216f039707bc879a46cc403c4f4e9da6d35ddade9ff1080de06ad",
        "5dedfd3a5e8f367a6dce7a3978f28631275af89f566e396cd45dc944864f237b",
        "9d22b40c9d18bf256cd8363dd0a9db3d2f75edc1c40ec949f623a9778071f576",
        "de645e65bea222bf4f50c20a323fdce47c8abaa084cdacb4c006cd30e46a73ba",
    ),
    "ternary5": (
        "58234407c5de31b80dd3c086960c39bd1427036a4714788fc96f6a804add837b",
        "2d21a83e88ab39e89ccb6936dd1e4a5e8203a4729187938c65fc18b7bc841a4c",
        "af940a5a7cb590e5e3657cc26e6cb8e072731da7ef2d78acc9536925d30445ac",
        "f21af8ab10d7472f7069e25d322033f4a5ad8b68e34a423f5217f5609139451e",
        "4e96238e983ca6ffade7198996fd55e5d5359bb730f5acb261cd233b5d41a9f9",
        "6808b122b3360c99f03eb2f864413e24f7204f0842cddb8a5dcef7f97eabb840",
        "d106a1ab22747fecbbdcf3b83dea53ae5e94d6eebb6d84f99a10da4f21b94ed7",
        "2e56ad7045143552776ab5b824f266d41a4f8265b2640aa99e867ba9b97ec2a6",
        "c912f2597f02cb529ca79d3a7872a58031a6cf90e3a0ce14b832819a8f198c88",
        "49b8b5e80479649d77009e9fb1ccdccd34ea994600c9b3f47b00a75c4377d7e6",
        "99bcf8428ea5bfb20f6510b2c91a3e487f5079272861bb993a81ec29124672af",
    ),
}

# SHA-256 of `oracle NAME --grid N` stdout.
ORACLE_GRID_SHA256 = {
    ("skew7", 11): "74c6a96102d2523478af5fef782ba27fcd91d4470716b047b6992f4eed36afa3",
    ("skew7", 21): "42b00e8912ef71cff55534e3713b932e48f914c8136e107299a3bdab3e0d286d",
    ("ternary5", 11): "e14e269b3934fcdf300ad06460ead32f581e7665db7b6541548fbc9145526c71",
    ("ternary5", 21): "674a56b467a31cb7fe76d9a1724ecc02ee23aa2568718ccc936a79c13a8cac12",
    ("uniform4", 11): "f57249ebd1c19d83538f5095e8c6518e8488bddcea3aae03814ca9727281d638",
    ("uniform4", 21): "25807b67fba0282d7368e8ea0a21f009a6866fffd308deac9e8f629dc81ab3ad",
}

# SHA-256 of the `oracle NAME --rho RHO --lp-dump FILE` file.
LP_DUMP_SHA256 = {
    ("skew7", "7/10"): "b9d9f15ed186dcd88aa1cbfc489ad8f9c312eafee62a4d2dcfb0b8c4a93ae8a4",
    ("uniform4", "0"): "6c6fb5f4280d21671f6e080d79b3a169d43ac0415321dd8cbb0de3cff8624d4e",
    ("ternary5", "1/2"): "aca618952bb628b440ef8364517f7b7e93fe573bcd88a37d5b85b9991569e5de",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_catalog_instance(self, capsys):
        code, out, err = run(capsys, "validate", "skew7")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "r=7 k=2 l=3, preimages [3,4]"

    def test_instance_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(instance_to_text(UNIFORM4))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert out.splitlines()[0] == "r=4 k=2 l=2, preimages [2,2]"

    def test_unknown_name(self, capsys):
        code, out, err = run(capsys, "validate", "missing")
        assert code == 1 and out == ""
        assert err.startswith("error: InstanceFormatError:")

    def test_unnormalized_pmf(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pmf": ["1/2", "49/100"], "f": [0, 1], "l": 1}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("error: PmfNotNormalized:")

    def test_function_value_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"pmf": ["1/2", "1/2"], "f": [0, 2], "l": 1, "k": 2})
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("error: BadFunctionRange:")


class TestCurve:
    def test_exact_format(self, capsys):
        code, out, _ = run(capsys, "curve", "skew7")
        assert code == 0
        payload = json.loads(out)
        assert payload["breakpoints"] == ["3/5", "2/3", "3/4"]
        assert len(payload["segments"]) == 4

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "curve", "uniform4", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("rho_lo,")
        assert len(rows) == 3

    def test_samples(self, capsys):
        code, out, _ = run(capsys, "curve", "ternary5", "--samples", "10")
        assert code == 0
        assert len(out.strip().splitlines()) == 12

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples(self, capsys, samples):
        code, out, err = run(capsys, "curve", "ternary5", "--samples", samples)
        assert code == 1 and out == ""
        assert err.startswith("error: InstanceFormatError:")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.json"
        code, out, _ = run(capsys, "curve", "skew7", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["breakpoints"] == ["3/5", "2/3", "3/4"]


class TestMechanism:
    def test_deterministic_indicator(self, capsys):
        code, out, _ = run(capsys, "mechanism", "uniform4", "--kind", "deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [
            ["1", "0"],
            ["1", "0"],
            ["0", "1"],
            ["0", "1"],
        ]

    def test_ternary_example_matrix(self, capsys):
        code, out, _ = run(
            capsys, "mechanism", "ternary5", "--kind", "ternary-example", "--rho", "3/4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][4] == ["1/8", "1/8", "3/4"]

    def test_ternary_kind_rejects_other_instances(self, capsys):
        code, _, err = run(
            capsys, "mechanism", "uniform4", "--kind", "ternary-example", "--rho", "3/4"
        )
        assert code == 1 and "InstanceFormatError" in err

    def test_optimal_binary_requires_rho(self, capsys):
        code, _, err = run(capsys, "mechanism", "skew7", "--kind", "optimal-binary")
        assert code == 1 and "--rho" in err

    def test_noise_file(self, capsys, tmp_path):
        # Noise rows give the distribution of the added offset, so entry 0 is
        # the probability of releasing the true function value.
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"rows": [["3/4", "1/4"], ["3/4", "1/4"]]}))
        code, out, _ = run(
            capsys, "mechanism", "uniform4", "--kind", "noise-file", "--noise", str(noise)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == ["3/4", "1/4"]
        assert payload["rows"][3] == ["1/4", "3/4"]


class TestEval:
    def test_uniform_mechanism_at_half(self, capsys, tmp_path):
        mech_file = tmp_path / "w0.json"
        run(capsys, "mechanism", "skew7", "--kind", "uniform", "--output", str(mech_file))
        code, out, _ = run(
            capsys, "eval", "skew7", "--mechanism", str(mech_file), "--rho", "1/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["privacy"] == "7/20"
        assert payload["recoverable"] is True
        assert payload["privacy_bound"] == "7/20"
        assert payload["gap"] == "0"

    def test_digest_mismatch(self, capsys, tmp_path):
        mech_file = tmp_path / "w.json"
        mech_file.write_text(matrix_to_text(uniform_qr(UNIFORM4), UNIFORM4))
        code, _, err = run(capsys, "eval", "skew7", "--mechanism", str(mech_file))
        assert code == 1
        assert err.startswith("error: DigestMismatch:")

    @pytest.mark.parametrize(
        "stored", ["f" * 10**6, list(range(10**4))], ids=["long-string", "long-list"]
    )
    def test_digest_mismatch_echo_is_bounded(self, capsys, tmp_path, stored):
        payload = json.loads(matrix_to_text(uniform_qr(SKEW7)))
        payload["instance_digest"] = stored
        mech_file = tmp_path / "w.json"
        mech_file.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "skew7", "--mechanism", str(mech_file))
        assert code == 1
        assert err.startswith("error: DigestMismatch:")
        assert len(err) < 200

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "skew7", "--mechanism", "/no/such/file")
        assert code == 1 and "error:" in err


class TestOracle:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "oracle", "ternary5", "--rho", "3/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimum"] == "1/4"
        assert len(payload["witness"]) == 5

    def test_grid_matches_envelope(self, capsys):
        code, out, _ = run(capsys, "oracle", "uniform4", "--grid", "5")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "rho,oracle,envelope,equal"
        assert len(rows) == 6
        assert all(row.endswith(",true") for row in rows[1:])

    def test_lp_dump(self, capsys, tmp_path):
        target = tmp_path / "program.lp"
        code, _, _ = run(
            capsys, "oracle", "uniform4", "--rho", "1/2", "--lp-dump", str(target)
        )
        assert code == 0
        assert "Minimize" in target.read_text()

    def test_requires_rho_or_grid(self, capsys):
        code, _, err = run(capsys, "oracle", "uniform4")
        assert code == 1 and "exactly one" in err

    def test_lp_dump_over_the_row_limit(self, capsys, tmp_path):
        # Binary, r = 24, l = 12: 2 * C(24, 12) = 5,408,312 list rows. The
        # count is refused before any row is built or the file is opened.
        inst_file = tmp_path / "wide.json"
        inst = listprivacy.Instance(pmf=(F(1, 24),) * 24, f=(0,) * 12 + (1,) * 12, l=12)
        inst_file.write_text(instance_to_text(inst))
        target = tmp_path / "program.lp"
        code, out, err = run(
            capsys, "oracle", str(inst_file), "--rho", "1/2", "--lp-dump", str(target)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: InstanceTooLarge:")
        assert not target.exists()

    def test_tie_heavy_instance(self, capsys, tmp_path):
        # Binary uniform, r = 26, l = 13: each witness ties on 20,801,200
        # lists. The grid prints none of them; --rho refuses to list them.
        inst_file = tmp_path / "ties.json"
        inst = listprivacy.Instance(pmf=(F(1, 26),) * 26, f=(0, 1) * 13, l=13)
        inst_file.write_text(instance_to_text(inst))
        code, out, err = run(capsys, "oracle", str(inst_file), "--grid", "3")
        assert code == 0 and err == ""
        rows = out.splitlines()
        assert len(rows) == 4 and all(row.endswith(",true") for row in rows[1:])
        code, out, err = run(capsys, "oracle", str(inst_file), "--rho", "1/2")
        assert code == 1 and out == ""
        assert err.startswith("error: InstanceTooLarge:")


class TestOracleBytes:
    """The oracle's stdout and LP dump, byte for byte, on the catalog."""

    @pytest.mark.parametrize("name", sorted(ORACLE_STDOUT_SHA256))
    @pytest.mark.parametrize("j", range(11))
    def test_stdout(self, capsys, name, j):
        code, out, err = run(capsys, "oracle", name, "--rho", f"{j}/10")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_STDOUT_SHA256[name][j]

    @pytest.mark.parametrize("name, points", sorted(ORACLE_GRID_SHA256))
    def test_grid_stdout(self, capsys, name, points):
        code, out, err = run(capsys, "oracle", name, "--grid", str(points))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_GRID_SHA256[name, points]

    @pytest.mark.parametrize("name, rho", sorted(LP_DUMP_SHA256))
    def test_lp_dump(self, capsys, tmp_path, name, rho):
        target = tmp_path / "program.lp"
        code, _, _ = run(capsys, "oracle", name, "--rho", rho, "--lp-dump", str(target))
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == LP_DUMP_SHA256[name, rho]


class TestOutputPath:
    """Every artifact goes through one write path: `--output FILE` holds the
    bytes the same call prints without it, and stdout stays empty."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "skew7"],
            ["curve", "uniform4", "--format", "csv"],
            ["curve", "ternary5", "--samples", "10"],
            ["mechanism", "skew7", "--kind", "optimal-binary", "--rho", "1/2"],
            ["eval", "skew7", "--mechanism", "MECH"],
            ["eval", "skew7", "--mechanism", "MECH", "--rho", "1/2"],
            ["oracle", "ternary5", "--rho", "3/4"],
            ["oracle", "uniform4", "--grid", "5"],
            ["simulate", "skew7", "--mechanism", "MECH", "--trials", "2000", "--seed", "3"],
            ["simulate", "uniform4", "--kind", "optimal-binary", "--grid", "3",
             "--trials", "2000", "--seed", "9"],
        ],
    )
    def test_file_holds_the_printed_bytes(self, capsys, tmp_path, argv):
        mech_file = tmp_path / "w.json"
        mech_file.write_text(matrix_to_text(uniform_qr(SKEW7), SKEW7))
        argv = [str(mech_file) if a == "MECH" else a for a in argv]
        code, printed, err = run(capsys, *argv)
        assert code == 0 and err == "" and printed
        target = tmp_path / "artifact"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 0 and out == "" and err == ""
        assert target.read_bytes() == printed.encode()

    def test_bad_rho_creates_no_dump(self, capsys, tmp_path):
        target = tmp_path / "program.lp"
        code, out, err = run(
            capsys, "oracle", "uniform4", "--rho", "3/2", "--lp-dump", str(target)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: RhoOutOfRange:")
        assert not target.exists()

    def test_validate_takes_no_output(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["validate", "skew7", "--output", str(target)])
        assert exc.value.code == 2
        assert not target.exists()


class TestSimulate:
    def test_deterministic_mechanism_is_exact(self, capsys, tmp_path):
        inst_file = tmp_path / "u4l3.json"
        inst_file.write_text(instance_to_text(UNIFORM4.with_list_size(3)))
        mech_file = tmp_path / "w1.json"
        run(
            capsys,
            "mechanism",
            str(inst_file),
            "--kind",
            "deterministic",
            "--output",
            str(mech_file),
        )
        code, out, _ = run(
            capsys,
            "simulate",
            str(inst_file),
            "--mechanism",
            str(mech_file),
            "--trials",
            "100000",
            "--seed",
            "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["misses"] == 0
        assert payload["analytic_privacy"] == "0"
        assert payload["abs_error"] == 0.0

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "uniform4",
            "--kind",
            "optimal-binary",
            "--grid",
            "3",
            "--trials",
            "2000",
            "--seed",
            "9",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "rho,empirical,analytic,abs_error"
        assert len(rows) == 4
        assert rows[1].split(",")[0] == "0"
        assert rows[3].split(",")[0] == "1"

    def test_ternary_example_sweep_starts_at_one_half(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "ternary5",
            "--kind",
            "ternary-example",
            "--grid",
            "3",
            "--trials",
            "1000",
            "--seed",
            "1",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1/2", "3/4", "1"]
        assert [row[2] for row in rows] == ["1/2", "1/4", "0"]

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "uniform4", "--kind", "optimal-binary", "--grid", "3", "--trials", "10"])
        assert exc.value.code == 2

    def test_needs_mechanism_or_kind(self, capsys):
        code, _, err = run(capsys, "simulate", "uniform4", "--trials", "10", "--seed", "1")
        assert code == 1 and "--mechanism" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials(self, capsys, tmp_path, trials):
        mech_file = tmp_path / "w.json"
        mech_file.write_text(matrix_to_text(uniform_qr(UNIFORM4), UNIFORM4))
        for source in (["--mechanism", str(mech_file)], ["--kind", "uniform", "--grid", "3"]):
            code, out, err = run(
                capsys, "simulate", "uniform4", *source, "--trials", trials, "--seed", "1"
            )
            assert code == 1 and out == ""
            assert err.startswith("error: InstanceFormatError:")


class TestMalformedFiles:
    @pytest.mark.parametrize("rows", [[1], 5, ["1/2"]])
    @pytest.mark.parametrize("command", ["eval", "simulate", "mechanism"])
    def test_rows_not_a_list_of_lists(self, capsys, tmp_path, command, rows):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"rows": rows}))
        argv = {
            "eval": ["eval", "uniform4", "--mechanism", str(path)],
            "simulate": ["simulate", "uniform4", "--mechanism", str(path),
                         "--trials", "10", "--seed", "1"],
            "mechanism": ["mechanism", "uniform4", "--kind", "noise-file", "--noise", str(path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: InstanceFormatError:")

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe" + '{"rows": []}'.encode("utf-16-le"), b"[" * 100000 + b"]" * 100000],
        ids=["utf16", "nested"],
    )
    def test_not_utf8(self, capsys, tmp_path, content):
        self._reject_everywhere(capsys, tmp_path, content)

    @pytest.mark.parametrize(
        "content",
        [
            # An integer literal longer than int() reads.
            b'{"pmf": ["1/2", "1/2"], "f": [0, 1], "l": ' + b"1" * 4301
            + b', "rows": [["1/2", "1/2"]]}',
            # An exponent whose expansion has ten million digits.
            b'{"pmf": ["1e-10000000", "1"], "f": [0, 1], "l": 1,'
            b' "rows": [["1e-10000000", "1"], ["1/2", "1/2"]]}',
        ],
        ids=["huge_int", "huge_exponent"],
    )
    def test_oversized_numbers(self, capsys, tmp_path, content):
        self._reject_everywhere(capsys, tmp_path, content)

    def test_no_rows_field(self, capsys, tmp_path):
        self._reject_everywhere(capsys, tmp_path, b'{"x": 1}')

    @staticmethod
    def _reject_everywhere(capsys, tmp_path, content):
        """Every subcommand that reads the file as input exits with InstanceFormatError."""
        path = tmp_path / "input.json"
        path.write_bytes(content)
        for argv in (
            ["validate", str(path)],
            ["eval", "uniform4", "--mechanism", str(path)],
            ["simulate", "uniform4", "--mechanism", str(path), "--trials", "10", "--seed", "1"],
            ["mechanism", "uniform4", "--kind", "noise-file", "--noise", str(path)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: InstanceFormatError:")


CORRUPTIONS = ("wrong_type", "huge_int", "huge_exponent", "nesting", "row_length")
ERROR_CODES = {
    cls.__name__
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ListPrivacyError)
}
FUZZ_NOISE = {
    "skew7": [["3/5", "2/5"], ["1/4", "3/4"]],
    "ternary5": [["1/2", "1/4", "1/4"], ["1/5", "3/5", "1/5"], ["1/3", "1/3", "1/3"]],
}
SPLICE = "@splice@"


def _targets(raw: dict) -> list[tuple]:
    """Paths to the fields of a file, their entries and their rows' entries."""
    paths = []
    for key, value in raw.items():
        if key == "instance_digest":
            continue
        paths.append((key,))
        if isinstance(value, list):
            for i, item in enumerate(value):
                paths.append((key, i))
                if isinstance(item, list):
                    paths.extend((key, i, j) for j in range(len(item)))
    return paths


def _corrupted_literal(rng: random.Random, kind: str, value) -> str:
    """JSON text that replaces `value`; every kind makes the file invalid."""
    if kind == "wrong_type":
        wrong = {
            list: ["x", 5, {}, True, 2.5],
            int: ["2", 2.5, [2], True, {}],
            str: [None, [], {}, True, "x"],
        }
        return json.dumps(rng.choice(wrong[type(value)]))
    if kind == "huge_int":
        return str(rng.randint(1, 9)) * rng.randint(4301, 6000)
    if kind == "huge_exponent":
        # Bare, the literal reads as inf or 0.0; quoted, as an exact rational.
        literal = f"1e{rng.choice('+-')}{rng.randint(10**4, 10**12)}"
        return rng.choice([literal, json.dumps(literal)])
    if kind == "nesting":
        depth = rng.choice([rng.randint(1, 3), rng.randint(2_000, 20_000)])
        return "[" * depth + json.dumps(value) + "]" * depth
    items = list(value)
    if rng.random() < 0.5:
        del items[rng.randrange(len(items))]
    else:
        items.insert(rng.randrange(len(items) + 1), rng.choice(items))
    return json.dumps(items)


def _corrupt(rng: random.Random, raw: dict, kind: str) -> str:
    """The file's JSON text with one field, entry or row corrupted by `kind`."""
    paths = _targets(raw)
    if kind == "row_length":
        paths = [p for p in paths if isinstance(_at(raw, p), list)]
    path = rng.choice(paths)
    literal = _corrupted_literal(rng, kind, _at(raw, path))
    copy = json.loads(json.dumps(raw))
    _at(copy, path[:-1])[path[-1]] = SPLICE
    return json.dumps(copy).replace(json.dumps(SPLICE), literal)


def _at(raw, path):
    for step in path:
        raw = raw[step]
    return raw


class TestMalformedInputFuzz:
    """Seeded one-field corruptions of every input file, through every subcommand."""

    @pytest.mark.parametrize("name", ["skew7", "ternary5"])
    @pytest.mark.parametrize("file_kind", ["instance", "mechanism", "noise"])
    def test_every_corruption_is_an_error_code(self, capsys, tmp_path, name, file_kind):
        rng = random.Random(f"{name}/{file_kind}")
        inst = catalog_instance(name)
        mech = tmp_path / "mech.json"
        mech.write_text(matrix_to_text(uniform_qr(inst), inst))
        raw = {
            "instance": json.loads(instance_to_text(inst)),
            "mechanism": json.loads(mech.read_text()),
            "noise": {"rows": FUZZ_NOISE[name]},
        }[file_kind]
        bad = tmp_path / "bad.json"
        inst_path = tmp_path / "inst.json"
        sim = ["--trials", "10", "--seed", "1"]
        for j in range(20):
            text = _corrupt(rng, raw, CORRUPTIONS[j % len(CORRUPTIONS)])
            bad.write_text(text)
            if file_kind == "instance":
                i = str(bad)
                calls = [
                    ["validate", i],
                    ["curve", i],
                    ["mechanism", i, "--kind", "uniform"],
                    ["eval", i, "--mechanism", str(mech)],
                    ["oracle", i, "--rho", "1/2"],
                    ["simulate", i, "--mechanism", str(mech), *sim],
                ]
            elif file_kind == "mechanism":
                calls = [["eval", name, "--mechanism", str(bad)],
                         ["simulate", name, "--mechanism", str(bad), *sim]]
            else:
                calls = [["mechanism", name, "--kind", "noise-file", "--noise", str(bad)]]
            for argv in calls:
                code, out, err = run(capsys, *argv)
                assert code == 1 and out == "", (argv[0], text[:200])
                prefix, code_name, _ = err.split(":", 2)
                assert prefix == "error" and code_name.strip() in ERROR_CODES, err[:200]


def run_module(*argv):
    """`python -m listprivacy` in a child that imports this package, installed or not."""
    home = str(Path(listprivacy.__file__).parents[1])
    path = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "listprivacy", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_imports_only_the_standard_library():
    # -I drops PYTHONPATH, user site-packages and the working directory, so
    # the child finds only the standard library, site-packages and this package.
    # -I also drops PYTHONDONTWRITEBYTECODE, so -B keeps the child from writing
    # bytecode into the package.
    home = str(Path(listprivacy.__file__).parents[1])
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import listprivacy, listprivacy.cli; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, home], capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "listprivacy" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"listprivacy"}


def test_module_entry_point():
    proc = run_module("validate", "uniform4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "r=4 k=2 l=2, preimages [2,2]"


def test_console_script_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "validate" in proc.stdout and "oracle" in proc.stdout
