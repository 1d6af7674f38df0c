import errno
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynlr import (
    DynamicImage,
    FormatError,
    IterationRecord,
    SamplingMask,
    SolverConfig,
    make_vd_mask,
    read_cplx,
    read_mask,
    write_cplx,
    write_mask,
)

from dynlr import dataio
from dynlr.cli import _write_trace, read_config_file, write_config_file

from conftest import rand_image


class TestVolumeRoundTrip:
    def test_lossless_at_float32(self, rng, tmp_path):
        img = rand_image(rng, (8, 8, 2))
        base = str(tmp_path / "vol")
        write_cplx(base, img)
        back = read_cplx(base)
        expected = img.data.astype(np.complex64).astype(np.complex128)
        assert np.array_equal(back.data, expected)
        assert np.abs(back.data - img.data).max() < 1e-6

    def test_accepts_suffixed_paths(self, rng, tmp_path):
        img = rand_image(rng, (4, 4, 1))
        write_cplx(str(tmp_path / "v.hdr"), img)
        back = read_cplx(str(tmp_path / "v.dat"))
        assert back.shape == (4, 4, 1)

    def test_disk_layout_is_little_endian_x_fastest(self, tmp_path):
        # volume with value x + 10y + 100t + i so the order is visible
        data = np.zeros((2, 2, 2), dtype=complex)
        for t in range(2):
            for y in range(2):
                for x in range(2):
                    data[x, y, t] = (x + 10 * y + 100 * t) + 1j
        write_cplx(str(tmp_path / "v"), DynamicImage(data))
        raw = np.frombuffer((tmp_path / "v.dat").read_bytes(), dtype="<f4")
        reals = raw[0::2]
        imags = raw[1::2]
        assert list(reals) == [0, 1, 10, 11, 100, 101, 110, 111]
        assert np.all(imags == 1.0)

    def test_header_contents(self, rng, tmp_path):
        write_cplx(str(tmp_path / "v"), rand_image(rng, (3, 4, 5)))
        lines = (tmp_path / "v.hdr").read_text().splitlines()
        assert lines == ["DYNLR1", "dims 3 4 5", "dtype c64le"]


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 6)),
        scale=st.sampled_from([1e-30, 1.0, 1e30]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_volume_round_trips_at_float32(self, shape, scale, seed):
        img = rand_image(np.random.default_rng(seed), shape)
        img = DynamicImage(img.data * scale)
        with tempfile.TemporaryDirectory() as tmp:
            write_cplx(str(Path(tmp) / "vol"), img)
            back = read_cplx(str(Path(tmp) / "vol"))
        assert np.array_equal(back.data, img.data.astype(np.complex64).astype(np.complex128))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ny=st.integers(1, 9), nt=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_mask_round_trips(self, ny, nt, seed):
        entries = (np.random.default_rng(seed).random((ny, nt)) < 0.5).astype(np.uint8)
        entries[0, 0] = 1
        mask = SamplingMask(entries, entries.size / entries.sum())
        with tempfile.TemporaryDirectory() as tmp:
            write_mask(str(Path(tmp) / "m"), mask)
            back = read_mask(str(Path(tmp) / "m"))
        assert np.array_equal(back.entries, mask.entries)
        assert back.acceleration == mask.achieved_acceleration


class TestCorruptFiles:
    def _write_valid(self, rng, tmp_path):
        base = str(tmp_path / "v")
        write_cplx(base, rand_image(rng, (4, 4, 4)))
        return base

    def test_truncated_data_file(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        raw = (tmp_path / "v.dat").read_bytes()
        (tmp_path / "v.dat").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            read_cplx(base)

    def test_oversized_data_file(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        raw = (tmp_path / "v.dat").read_bytes()
        (tmp_path / "v.dat").write_bytes(raw + raw)
        with pytest.raises(FormatError):
            read_cplx(base)

    @pytest.mark.parametrize("size", [0, 7, 256, 513, 1024])
    def test_wrong_size_is_rejected_without_reading(self, rng, tmp_path, monkeypatch, size):
        base = self._write_valid(rng, tmp_path)
        raw = (tmp_path / "v.dat").read_bytes()
        (tmp_path / "v.dat").write_bytes((raw + raw)[:size])
        reads = []
        monkeypatch.setattr(np, "fromfile", lambda *args, **kwargs: reads.append(args))
        with pytest.raises(FormatError, match=f"holds {size} bytes .* = 64 complex values"):
            read_cplx(base)
        assert reads == []

    def test_unknown_magic(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        (tmp_path / "v.hdr").write_text("NOTDYN\ndims 4 4 4\ndtype c64le\n")
        with pytest.raises(FormatError):
            read_cplx(base)

    def test_bad_dims_line(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        (tmp_path / "v.hdr").write_text("DYNLR1\ndims 4 four 4\ndtype c64le\n")
        with pytest.raises(FormatError):
            read_cplx(base)

    def test_truncated_header(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        (tmp_path / "v.hdr").write_text("DYNLR1\n")
        with pytest.raises(FormatError):
            read_cplx(base)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FormatError):
            read_cplx(str(tmp_path / "absent"))

    def test_unsupported_dtype(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        (tmp_path / "v.hdr").write_text("DYNLR1\ndims 4 4 4\ndtype f32le\n")
        with pytest.raises(FormatError):
            read_cplx(base)

    def test_non_ascii_header(self, rng, tmp_path):
        base = self._write_valid(rng, tmp_path)
        (tmp_path / "v.hdr").write_bytes(b"DYNLR1\ndims 4 4 4\xff\ndtype c64le\n")
        with pytest.raises(FormatError):
            read_cplx(base)


    @pytest.mark.parametrize(
        "dims",
        [
            "+2 2_0 1", "2 20 +1", "2 2_0 1", "2 -20 1", "0x2 20 1",
            pytest.param("1" * 5000 + " 1 1", id="above-int-digit-limit"),
        ],
    )
    def test_dims_must_be_plain_decimal_digits(self, tmp_path, dims):
        """``int()`` reads ``dims +2 2_0 1`` as 2x20x1; the writer never writes such a line."""
        base = str(tmp_path / "v")
        write_cplx(base, np.ones((2, 20, 1), dtype=complex))
        (tmp_path / "v.hdr").write_text(f"DYNLR1\ndims {dims}\ndtype c64le\n")
        with pytest.raises(FormatError, match="decimal digits"):
            read_cplx(base)

    @pytest.mark.parametrize(
        "token, match",
        [("+16", "not decimal digits"), ("1_6", "not decimal digits"), ("\u0661\u0666", "not ASCII"),
         ("1" * 5000, "too many decimal digits")],
        ids=["plus", "underscore", "non-ascii-digits", "5000-digits"],
    )
    def test_dims_are_read_in_the_number_grammar(self, tmp_path, token, match):
        """The dims tokens that ``int()`` reads as 16 or as a number, and the grammar of ``core._parse_int`` refuses."""
        base = str(tmp_path / "v")
        write_cplx(base, np.ones((16, 16, 8), dtype=complex))
        (tmp_path / "v.hdr").write_bytes(f"DYNLR1\ndims {token} 16 8\ndtype c64le\n".encode())
        with pytest.raises(FormatError, match=match):
            read_cplx(base)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.one_of(
            st.lists(
                st.tuples(st.sampled_from(["", "+", "-", "_"]), st.sampled_from(["1", "01", "0_1", "x1"])),
                min_size=3, max_size=3,
            ).map(lambda toks: " ".join(sign + digits for sign, digits in toks)),
            st.text(st.sampled_from("01+-_ .xe\t\r\x0b\x00"), max_size=12),
        )
    )
    def test_any_dims_line_gives_data_or_format_error(self, tmp_path_factory, dims):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        base = str(tmp_path / "v")
        write_cplx(base, np.ones((1, 1, 1), dtype=complex))
        (tmp_path / "v.hdr").write_text(f"DYNLR1\ndims {dims}\ndtype c64le\n")
        for read, shape_of in ((read_cplx, lambda v: v.shape), (read_mask, lambda m: (1, m.ny, m.nt))):
            try:
                shape = shape_of(read(base))
            except FormatError:
                continue
            assert all(tok.isdigit() for tok in dims.split())
            assert tuple(int(tok) for tok in dims.split()) == shape

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        magic=st.one_of(
            st.just("DYNLR1"),
            st.sampled_from([" DYNLR1\t", "DYNLR", "dynlr1", "DYNLR12", "DYNLR1 x"]),
            st.text(st.characters(max_codepoint=127), max_size=12),
        ),
        dims=st.lists(st.sampled_from(["1", "01", "x", "9" * 4000, "9" * 5000]), max_size=5),
        dtype=st.one_of(
            st.sampled_from(["dtype c64le", "dtype c64le\r", "dtype  c64le", "dtype c64be", "c64le"]),
            st.text(st.characters(max_codepoint=127), max_size=12),
        ),
    )
    def test_any_header_gives_data_or_format_error(self, tmp_path_factory, magic, dims, dtype):
        """The magic and dtype lines, and dims lines with any number of tokens."""
        tmp_path = tmp_path_factory.mktemp("fuzz")
        base = str(tmp_path / "v")
        write_cplx(base, np.ones((1, 1, 1), dtype=complex))
        header = f"{magic}\ndims {' '.join(dims)}\n{dtype}\n"
        (tmp_path / "v.hdr").write_bytes(header.encode("ascii"))
        lines = [line.strip() for line in header.splitlines() if line.strip()]
        for read in (read_cplx, read_mask):
            try:
                read(base)
            except FormatError:
                continue
            assert lines[0] == "DYNLR1" and lines[2] == "dtype c64le"
            assert [int(tok) for tok in lines[1].split()[1:]] == [1, 1, 1]

    def test_volume_beyond_complex64_is_rejected_before_writing(self, tmp_path):
        data = np.ones((2, 3, 2), dtype=complex)
        data[1, 2, 1] = 1e39 - 2j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="complex64"):
                write_cplx(str(tmp_path / "v"), DynamicImage(data))
        assert list(tmp_path.iterdir()) == []


class TestMaskIo:
    def test_round_trip(self, tmp_path):
        mask = make_vd_mask(32, 4, 4.0, seed=2)
        write_mask(str(tmp_path / "m"), mask)
        back = read_mask(str(tmp_path / "m"))
        assert np.array_equal(back.entries, mask.entries)
        assert back.acceleration == mask.achieved_acceleration

    def test_explicit_acceleration(self, tmp_path):
        mask = make_vd_mask(32, 4, 4.0, seed=2)
        write_mask(str(tmp_path / "m"), mask)
        back = read_mask(str(tmp_path / "m"), acceleration=4.0)
        assert back.acceleration == 4.0

    def test_rejects_wide_volumes(self, rng, tmp_path):
        write_cplx(str(tmp_path / "m"), rand_image(rng, (2, 4, 4)))
        with pytest.raises(FormatError):
            read_mask(str(tmp_path / "m"))

    def test_rejects_non_binary_values(self, tmp_path):
        vol = np.full((1, 4, 4), 0.5, dtype=complex)
        write_cplx(str(tmp_path / "m"), vol)
        with pytest.raises(FormatError):
            read_mask(str(tmp_path / "m"))

    def test_mask_written_as_binary_volume(self, tmp_path):
        entries = np.zeros((8, 2), dtype=np.uint8)
        entries[3:6, :] = 1
        write_mask(str(tmp_path / "m"), SamplingMask(entries, 8 / 3))
        vol = read_cplx(str(tmp_path / "m"))
        assert vol.shape == (1, 8, 2)
        assert set(np.unique(vol.data.real)) <= {0.0, 1.0}


class _HalfWrite:
    """A file whose ``write`` writes half of what it is given, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise _no_space()


def _no_space():
    return OSError(errno.ENOSPC, "No space left on device")


def _inject(monkeypatch, action, target):
    """Make ``action`` fail: open or write for the paths that hold ``target``, remove or replace for those that end in it."""
    real_open, real_remove, real_replace = open, os.remove, os.replace

    def fake_open(path, *args, **kwargs):
        if action == "open" and target in str(path):
            raise _no_space()
        fh = real_open(path, *args, **kwargs)
        return _HalfWrite(fh) if action == "write" and target in str(path) else fh

    def fake_remove(path):
        if action == "remove" and str(path).endswith(target):
            raise PermissionError(errno.EACCES, "Permission denied")
        real_remove(path)

    def fake_replace(src, dst):
        if action == "replace" and str(dst).endswith(target):
            raise _no_space()
        real_replace(src, dst)

    monkeypatch.setattr(dataio, "open", fake_open, raising=False)
    monkeypatch.setattr(os, "remove", fake_remove)
    monkeypatch.setattr(os, "replace", fake_replace)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestWholeOrNothing:
    """A write that fails at any step leaves the old files, or no readable pair, and no temporary file."""

    # Up to the removal of the old header the old pair stays; after it, no pair reads.
    @pytest.mark.parametrize("step, old_pair_stays", [
        ("open .dat", True), ("write .dat", True), ("open .hdr", True), ("write .hdr", True),
        ("remove .hdr", True), ("remove .dat", False), ("replace .dat", False), ("replace .hdr", False),
    ])
    def test_failed_volume_write(self, rng, tmp_path, monkeypatch, step, old_pair_stays):
        base = str(tmp_path / "v")
        old = rand_image(rng, (4, 2, 3))
        write_cplx(base, old)
        before = _files(tmp_path)
        action, suffix = step.split()
        _inject(monkeypatch, action, suffix if action in ("remove", "replace") else suffix + ".")
        with pytest.raises(OSError):
            write_cplx(base, rand_image(rng, (2, 4, 3)))
        monkeypatch.undo()
        if old_pair_stays:
            assert _files(tmp_path) == before
            assert np.array_equal(read_cplx(base).data, old.data.astype(np.complex64))
        else:
            assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))
            assert not (tmp_path / "v.hdr").exists()
            with pytest.raises(FormatError, match="cannot read header"):
                read_cplx(base)

    def test_failed_mask_write_keeps_the_old_mask(self, tmp_path, monkeypatch):
        base = str(tmp_path / "m")
        write_mask(base, make_vd_mask(32, 4, 4.0, seed=2))
        before = _files(tmp_path)
        _inject(monkeypatch, "write", ".dat.")
        with pytest.raises(OSError):
            write_mask(base, make_vd_mask(16, 8, 4.0, seed=3))
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("action", ["open", "write", "replace"])
    @pytest.mark.parametrize("writer", ["config", "trace"])
    def test_failed_text_write_keeps_the_old_file(self, tmp_path, monkeypatch, writer, action):
        path = tmp_path / "out.txt"
        if writer == "config":
            write, old, new = write_config_file, SolverConfig(), SolverConfig(lambda1=0.5)
        else:
            write = _write_trace
            old, new = ([IterationRecord(n, 1.0, 0.5, 0.25, 0.25, 0.1) for n in range(1, k)] for k in (3, 5))
        write(path, old)
        before = _files(tmp_path)
        _inject(monkeypatch, action, "out.txt")
        with pytest.raises(OSError):
            write(path, new)
        assert _files(tmp_path) == before

    def test_a_write_replaces_every_file_and_leaves_no_other(self, rng, tmp_path):
        base = str(tmp_path / "v")
        write_cplx(base, rand_image(rng, (4, 2, 3)))
        new = rand_image(rng, (2, 4, 3))
        write_cplx(base, new)
        write_config_file(tmp_path / "cfg.txt", SolverConfig())
        write_config_file(tmp_path / "cfg.txt", SolverConfig(lambda1=0.5))
        assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "v.dat", "v.hdr"]
        assert np.array_equal(read_cplx(base).data, new.data.astype(np.complex64))
        assert read_config_file(tmp_path / "cfg.txt")["lambda1"] == 0.5
