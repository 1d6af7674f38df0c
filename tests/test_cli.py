import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dynlr import ifft2c, read_cplx, read_mask
from dynlr.cli import main, parse_grid_spec, read_config_file, write_config_file
from dynlr.core import ConfigError, SolverConfig


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
