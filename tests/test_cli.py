import dataclasses
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynlr import ifft2c, read_cplx, read_mask, write_cplx
from dynlr.cli import _flag_overrides, build_parser, main, parse_grid_spec, read_config_file, write_config_file
from dynlr.core import (
    DC_MODES, LR_MODES, PLACEMENTS, T_STEP_INPUTS, TRANSFORM_KINDS, ConfigError, SolverConfig, _parse_float,
    _parse_int,
)


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage errors exit directly
        return exc.code


def make_inputs(tmp_path, nx=16, ny=16, nt=8, accel=2.0, kind="rank_r_sparse"):
    phantom = str(tmp_path / "p")
    mask = str(tmp_path / "m")
    ksp = str(tmp_path / "y")
    assert run_cli([
        "phantom", "--nx", str(nx), "--ny", str(ny), "--nt", str(nt),
        "--kind", kind, "--rank", "1", "--sparsity", "1", "--seed", "1", "--out", phantom,
    ]) == 0
    assert run_cli([
        "mask", "--ny", str(ny), "--nt", str(nt), "--accel", str(accel), "--seed", "3", "--out", mask,
    ]) == 0
    assert run_cli(["encode", "--image", phantom, "--mask", mask, "--out", ksp]) == 0
    return phantom, mask, ksp


class TestMaskCommand:
    def test_full_size_mask_prints_acceleration(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        rc = run_cli(["mask", "--ny", "192", "--nt", "16", "--accel", "8", "--seed", "7", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "achieved acceleration: 8.0000" in printed
        assert (tmp_path / "m.hdr").exists() and (tmp_path / "m.dat").exists()
        mask = read_mask(out)
        assert mask.entries.shape == (192, 16)

    def test_bad_acceleration_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(["mask", "--ny", "64", "--nt", "4", "--accel", "0.5", "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run_cli(["mask", "--ny", "64", "--nt", "8", "--accel", "4", "--seed", "5", "--out", out]) == 0
        assert (tmp_path / "a.dat").read_bytes() == (tmp_path / "b.dat").read_bytes()
        assert (tmp_path / "a.hdr").read_bytes() == (tmp_path / "b.hdr").read_bytes()


class TestPhantomCommand:
    def test_rank_sparse_writes_valid_volume(self, tmp_path):
        out = str(tmp_path / "p")
        rc = run_cli([
            "phantom", "--nx", "16", "--ny", "16", "--nt", "8", "--kind", "rank_r_sparse",
            "--rank", "1", "--sparsity", "1", "--seed", "1", "--out", out,
        ])
        assert rc == 0
        vol = read_cplx(out)
        assert vol.shape == (16, 16, 8)

    def test_unknown_kind_lists_valid_ones(self, tmp_path, capsys):
        rc = run_cli(["phantom", "--nx", "16", "--ny", "16", "--nt", "8", "--kind", "nosuch", "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "beating_rings" in err and "rank_r_sparse" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["phantom", "--nx", "8", "--ny", "8", "--nt", "8", "--seed", "-1"],
            ["phantom", "--nx", "8", "--ny", "8", "--nt", "8", "--kind", "rank_r_sparse", "--seed", "-1"],
            ["mask", "--ny", "8", "--nt", "8", "--accel", "2", "--seed", "-1"],
        ],
        ids=["phantom", "phantom-rank-r-sparse", "mask"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, args):
        assert run_cli([*args, "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_full_size_generation_under_five_seconds(self, tmp_path):
        start = time.perf_counter()
        rc = run_cli(["phantom", "--nx", "192", "--ny", "192", "--nt", "16", "--kind", "beating_rings", "--out", str(tmp_path / "p")])
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 5.0


class TestReconCommand:
    def test_fully_sampled_unregularized_reproduces_inverse_fft(self, tmp_path, capsys):
        phantom, mask, ksp = make_inputs(tmp_path, accel=1.0)
        out = str(tmp_path / "rec")
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista",
            "--lambda1", "0", "--iters", "3", "--ref", phantom, "--out", out,
        ])
        assert rc == 0
        rec = read_cplx(out)
        expected = ifft2c(read_cplx(ksp))
        assert np.abs(rec.data - expected.data).max() < 1e-6  # float32 file precision
        printed = capsys.readouterr().out
        psnr_line = [l for l in printed.splitlines() if l.startswith("psnr=")][0]
        value = psnr_line.split("=")[1]
        assert value == "inf" or float(value) > 100.0

    def test_rank_k_exceeding_frames_is_config_error(self, tmp_path, capsys):
        _, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "slr",
            "--rank-k", "20", "--out", str(tmp_path / "rec"),
        ])
        assert rc == 2

    def test_trace_is_json_lines(self, tmp_path):
        _, mask, ksp = make_inputs(tmp_path)
        trace = tmp_path / "trace.ndjson"
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "slr", "--rank-k", "1",
            "--iters", "4", "--out", str(tmp_path / "rec"), "--trace", str(trace),
        ])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert records[0]["iteration"] == 1
        for key in ("objective", "data_fidelity", "sparse_term", "nuclear_term", "rel_change", "split_gap"):
            assert key in records[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_failure_exit_code(self, tmp_path):
        _, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "slr", "--rank-k", "1",
            "--rho", "1e4", "--eta2", "1e4", "--iters", "60", "--out", str(tmp_path / "rec"),
        ])
        assert rc == 4

    @pytest.mark.filterwarnings("error")
    def test_numeric_failure_keeps_completed_trace(self, tmp_path, capsys):
        _, mask, ksp = make_inputs(tmp_path, nx=32, ny=32, nt=8, accel=4.0)
        trace = tmp_path / "t.ndjson"
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "slr", "--eta2", "50",
            "--iters", "200", "--out", str(tmp_path / "rec"), "--trace", str(trace),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite objective value at iteration ")
        failed_at = int(err.rstrip().rpartition(" ")[2])
        assert failed_at > 1
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["iteration"] for r in records] == list(range(1, failed_at))
        assert not (tmp_path / "rec.dat").exists()

    def test_corrupt_ksp_file_exit_code(self, tmp_path):
        _, mask, ksp = make_inputs(tmp_path)
        raw = (tmp_path / "y.dat").read_bytes()
        (tmp_path / "y.dat").write_bytes(raw[:10])
        rc = run_cli(["recon", "--ksp", ksp, "--mask", mask, "--solver", "ista", "--out", str(tmp_path / "rec")])
        assert rc == 3

    def test_config_file_roundtrip_through_recon(self, tmp_path):
        _, mask, ksp = make_inputs(tmp_path)
        cfg = SolverConfig(lambda1=0.01, rank_k=2, iterations=5, placement="L2")
        cfg_path = str(tmp_path / "cfg.txt")
        write_config_file(cfg_path, cfg)
        assert read_config_file(cfg_path)["lambda1"] == 0.01
        out_a = str(tmp_path / "ra")
        out_b = str(tmp_path / "rb")
        assert run_cli(["recon", "--ksp", ksp, "--mask", mask, "--solver", "ista-lr", "--config", cfg_path, "--out", out_a]) == 0
        assert run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista-lr",
            "--lambda1", "0.01", "--rank-k", "2", "--iters", "5", "--placement", "l2", "--out", out_b,
        ]) == 0
        assert (tmp_path / "ra.dat").read_bytes() == (tmp_path / "rb.dat").read_bytes()

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        cfg = SolverConfig(
            lambda1=np.float64(0.002), rho=np.float32(0.1), eta2=np.float32(0.7),
            rank_k=np.int64(3), iterations=np.int64(7),
        )
        cfg_path = tmp_path / "cfg.txt"
        write_config_file(cfg_path, cfg)
        assert SolverConfig(**read_config_file(cfg_path)) == cfg

    def test_non_ascii_config_file_is_usage_error(self, tmp_path, capsys):
        _, mask, ksp = make_inputs(tmp_path)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_bytes(b"iterations=2\n# caf\xe9\n")
        with pytest.raises(ConfigError):
            read_config_file(str(cfg_path))
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista",
            "--config", str(cfg_path), "--out", str(tmp_path / "rec"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_repeated_config_field_is_usage_error(self, tmp_path, capsys):
        _, mask, ksp = make_inputs(tmp_path)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("iterations=2\nlambda1=1e-3\n lambda1 = 2e-3\n")
        with pytest.raises(ConfigError, match="'lambda1' is given more than once"):
            read_config_file(str(cfg_path))
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista",
            "--config", str(cfg_path), "--out", str(tmp_path / "rec"),
        ])
        assert rc == 2
        assert "lambda1" in capsys.readouterr().err


class TestEvalCommand:
    def test_identical_files(self, tmp_path, capsys):
        phantom, _, _ = make_inputs(tmp_path)
        rc = run_cli(["eval", "--ref", phantom, "--rec", phantom])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mse=0.000000e+00" in out
        assert "psnr=inf" in out
        assert "ssim=1.0000" in out

    def test_json_output_schema(self, tmp_path, capsys):
        phantom, _, _ = make_inputs(tmp_path)
        capsys.readouterr()
        rc = run_cli(["eval", "--ref", phantom, "--rec", phantom, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert set(payload) == {"mse", "mse_per_element_e5", "psnr", "ssim"}
        assert payload["psnr"] == "inf"
        assert payload["ssim"] == 1.0

    def test_frames_smaller_than_ssim_window_report_null(self, tmp_path, capsys):
        phantom, mask, ksp = make_inputs(tmp_path, nx=8, ny=8, nt=8)
        capsys.readouterr()
        assert run_cli(["eval", "--ref", phantom, "--rec", phantom, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["ssim"] is None and payload["psnr"] == "inf"
        assert run_cli(["eval", "--ref", phantom, "--rec", phantom]) == 0
        assert "ssim=n/a" in capsys.readouterr().out.splitlines()
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista", "--iters", "2",
            "--ref", phantom, "--out", str(tmp_path / "rec"),
        ])
        assert rc == 0
        assert "ssim=n/a" in capsys.readouterr().out.splitlines()

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        phantom, _, _ = make_inputs(tmp_path)
        other = str(tmp_path / "q")
        assert run_cli(["phantom", "--nx", "16", "--ny", "16", "--nt", "16", "--kind", "beating_rings", "--out", other]) == 0
        rc = run_cli(["eval", "--ref", phantom, "--rec", other])
        assert rc == 3

    def test_non_ascii_header_is_format_error(self, tmp_path, capsys):
        phantom, _, _ = make_inputs(tmp_path)
        (tmp_path / "p.hdr").write_bytes(b"DYNLR1\xff\ndims 16 16 8\ndtype c64le\n")
        rc = run_cli(["eval", "--ref", phantom, "--rec", phantom])
        assert rc == 3
        assert "not ASCII" in capsys.readouterr().err

    def test_signed_or_underscored_dims_are_format_error(self, tmp_path, capsys):
        phantom, _, _ = make_inputs(tmp_path)
        (tmp_path / "p.hdr").write_text("DYNLR1\ndims +16 1_6 8\ndtype c64le\n")
        rc = run_cli(["eval", "--ref", phantom, "--rec", phantom])
        assert rc == 3
        assert "decimal digits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims, match",
        [("1" * 5000 + " 16 8", "too many decimal digits"), (f"{'9' * 4000} {'9' * 4000} 8", "declare more than")],
        ids=["above-int-digit-limit", "product-above-any-file"],
    )
    def test_overlong_dims_are_format_error(self, tmp_path, capsys, dims, match):
        phantom, _, _ = make_inputs(tmp_path)
        (tmp_path / "p.hdr").write_text(f"DYNLR1\ndims {dims}\ndtype c64le\n")
        rc = run_cli(["eval", "--ref", phantom, "--rec", phantom])
        assert rc == 3
        assert match in capsys.readouterr().err


class TestTuneCommand:
    def test_single_point_grid_echoes_config(self, tmp_path, capsys):
        phantom, mask, ksp = make_inputs(tmp_path)
        out = str(tmp_path / "cfg.txt")
        rc = run_cli([
            "tune", "--ksp", ksp, "--mask", mask, "--ref", phantom, "--solver", "ista",
            "--iters", "4", "--grid", "lambda1=0.005", "--out", out,
        ])
        assert rc == 0
        overrides = read_config_file(out)
        assert overrides["lambda1"] == 0.005
        assert overrides["iterations"] == 4
        assert "best psnr" in capsys.readouterr().out

    def test_bad_grid_token_is_usage_error(self, tmp_path, capsys):
        phantom, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "tune", "--ksp", ksp, "--mask", mask, "--ref", phantom, "--solver", "ista",
            "--grid", "lambda1:0.1", "--out", str(tmp_path / "cfg.txt"),
        ])
        assert rc == 2
        assert "lambda1:0.1" in capsys.readouterr().err

    def test_unknown_grid_field_is_usage_error(self, tmp_path, capsys):
        phantom, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "tune", "--ksp", ksp, "--mask", mask, "--ref", phantom, "--solver", "ista",
            "--grid", "bogus=1,2", "--out", str(tmp_path / "cfg.txt"),
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_all_zero_reference_is_data_error(self, tmp_path, capsys):
        phantom, mask, ksp = make_inputs(tmp_path)
        zero = str(tmp_path / "zero")
        write_cplx(zero, np.zeros(read_cplx(phantom).shape, dtype=complex))
        rc = run_cli([
            "tune", "--ksp", ksp, "--mask", mask, "--ref", zero, "--solver", "ista",
            "--iters", "2", "--grid", "lambda1=0.001,0.01", "--out", str(tmp_path / "cfg.txt"),
        ])
        assert rc == 3
        assert "all-zero reference" in capsys.readouterr().err

    def test_reproducible(self, tmp_path):
        phantom, mask, ksp = make_inputs(tmp_path)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            assert run_cli([
                "tune", "--ksp", ksp, "--mask", mask, "--ref", phantom, "--solver", "ista",
                "--iters", "4", "--grid", "lambda1=0.001,0.01", "--out", out,
            ]) == 0
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()


class TestGridSpecParsing:
    def test_parses_typed_values(self):
        space = parse_grid_spec("lambda1=1e-4,1e-3;rank_k=2,4;placement=L1,L2")
        assert space["lambda1"] == [1e-4, 1e-3]
        assert space["rank_k"] == [2, 4]
        assert space["placement"] == ["L1", "L2"]

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            parse_grid_spec(";")

    def test_rejects_bad_int(self):
        with pytest.raises(ConfigError):
            parse_grid_spec("rank_k=2.5")

    def test_rejects_repeated_field(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="'lambda1' is given more than once"):
            parse_grid_spec("lambda1=1e-3; lambda1 =2e-3")
        phantom, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "tune", "--ksp", ksp, "--mask", mask, "--ref", phantom, "--solver", "ista",
            "--grid", "lambda1=1e-3;lambda1=2e-3", "--out", str(tmp_path / "cfg.txt"),
        ])
        assert rc == 2
        assert "lambda1" in capsys.readouterr().err


def _field_values(field):
    """Any value of a SolverConfig field's type: inf, nan and ints beyond every float included."""
    if field.type is float:
        return st.floats()
    if field.type is int:
        return st.integers(-(2**1024), 2**1024)
    choices = {"placement": PLACEMENTS, "dc_mode": DC_MODES, "lr_mode": LR_MODES,
               "transform": TRANSFORM_KINDS, "t_step_input": T_STEP_INPUTS}
    return st.sampled_from(choices[field.name])


# The numeric flags of recon and tune, and the SolverConfig field each sets.
_NUMERIC_FLAGS = {
    "iters": "iterations", "lambda1": "lambda1", "lambda2": "lambda2", "rho": "rho",
    "eta1": "eta1", "eta2": "eta2", "rank-k": "rank_k", "p": "p",
}
_FIELDS = {f.name: f for f in dataclasses.fields(SolverConfig)}


class TestNumberTokens:
    """Every text input reads numbers as ``repr`` writes them.

    ``int()`` and ``float()`` would also take underscores, surrounding
    whitespace and a leading "+"; each entry point rejects them with exit 2.
    """

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(value=st.floats(allow_nan=False) | st.integers(-(10**30), 10**30))
    def test_repr_reads_back(self, value):
        parse = _parse_int if isinstance(value, int) else _parse_float
        assert parse(repr(value)) == value
        for loose in (f"+{value!r}", f" {value!r}", f"{value!r} ", f"{value!r}"[:1] + "_" + f"{value!r}"[1:]):
            with pytest.raises(ValueError):
                parse(loose)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cfg=st.builds(SolverConfig, **{f.name: _field_values(f) for f in dataclasses.fields(SolverConfig)}))
    def test_written_config_reads_back(self, cfg):
        # NaN is compared by repr, which also tells 1 from 1.0.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.txt"
            write_config_file(path, cfg)
            lines = path.read_text(encoding="ascii").splitlines()
            read = read_config_file(path)
        expected = {k: repr(v) for k, v in dataclasses.asdict(cfg).items()}
        assert {k: repr(v) for k, v in read.items()} == expected
        # Each written line is also a --grid token of one value.
        grid = parse_grid_spec(";".join(lines))
        assert {k: repr(v) for k, (v,) in grid.items()} == expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["recon", "tune"]),
        values=st.fixed_dictionaries(
            {name: _field_values(_FIELDS[name]) for name in [*_NUMERIC_FLAGS.values(), "dc_nu"]}
        ),
    )
    def test_flags_read_back(self, command, values):
        # Each token goes as "--flag=TOKEN": argparse reads "--flag -1e-05" as a flag without its value.
        inputs = {"recon": [], "tune": ["--ref", "r", "--grid", "rho=1"]}[command]
        flags = [f"--{flag}={values[field]!r}" for flag, field in _NUMERIC_FLAGS.items()]
        args = build_parser().parse_args([
            command, "--ksp", "k", "--mask", "m", "--out", "o", *inputs, "--solver", "ista", *flags,
            f"--dc=weighted:{values['dc_nu']!r}",
        ])
        expected = {name: repr(value) for name, value in values.items()} | {"dc_mode": repr("weighted")}
        assert {name: repr(value) for name, value in _flag_overrides(args).items()} == expected

    @pytest.mark.parametrize("line", ["iterations=1_0", "lambda1=+1_0.5e-3", "rank_k= 0_3", "eta2=+1.0"])
    def test_config_file(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="bad value"):
            read_config_file(str(cfg_path))
        _, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista",
            "--config", str(cfg_path), "--out", str(tmp_path / "rec"),
        ])
        assert rc == 2
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["iterations=4_0,8_0", "lambda1=+0.1", "rho=0.1,1 0"])
    def test_grid(self, tmp_path, capsys, spec):
        with pytest.raises(ConfigError, match="bad value"):
            parse_grid_spec(spec)
        phantom, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "tune", "--ksp", ksp, "--mask", mask, "--ref", phantom, "--solver", "ista",
            "--grid", spec, "--out", str(tmp_path / "cfg.txt"),
        ])
        assert rc == 2
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["weighted:4_0", "weighted:+4", "weighted: 4", "weighted:4 "])
    def test_dc_weight(self, tmp_path, capsys, flag):
        _, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "ista", "--dc", flag,
            "--out", str(tmp_path / "rec"),
        ])
        assert rc == 2
        assert "weight" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["mask", "--ny", "16", "--nt", "8", "--accel", "4_0"],
            ["mask", "--ny", "+16", "--nt", "8", "--accel", "4"],
            ["phantom", "--nx", "16", "--ny", " 16", "--nt", "8"],
            ["phantom", "--nx", "16", "--ny", "16", "--nt", "8", "--seed", "1_0"],
        ],
        ids=["underscore-float", "plus-int", "space-int", "underscore-seed"],
    )
    def test_generator_flags(self, tmp_path, capsys, args):
        assert run_cli([*args, "--out", str(tmp_path / "o")]) == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, token", [("--iters", "1_0"), ("--lambda1", "+1e-3"), ("--rank-k", "2 ")])
    def test_solver_flags(self, tmp_path, capsys, flag, token):
        _, mask, ksp = make_inputs(tmp_path)
        rc = run_cli([
            "recon", "--ksp", ksp, "--mask", mask, "--solver", "slr", flag, token,
            "--out", str(tmp_path / "rec"),
        ])
        assert rc == 2
        assert "invalid" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "dynlr", "mask", "--ny", "16", "--nt", "2", "--accel", "2", "--out", str(tmp_path / "m")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "achieved acceleration" in result.stdout

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "dynlr", "mask", "--ny", "16"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
