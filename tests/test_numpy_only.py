"""doalab runs on numpy alone: its window, filters, convolution and WAV I/O
against scipy as the reference, and import guards that keep scipy out and
leave threads and BLAS settings alone."""

import ast
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.fft
import scipy.io.wavfile
import scipy.signal

from doalab.signal import TimeSignal, analysis_window, read_wav, write_wav
from doalab.simulate import _convolve, _fft_size, _one_pole

FS = 16000
SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    code = "import sys, doalab, doalab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_starts_no_thread_and_keeps_blas_threads():
    code = (
        "import json, threading, numpy\n"
        "from blas_probe import blas_thread_counts\n"
        "before = [threading.active_count(), blas_thread_counts()]\n"
        "import doalab, doalab.cli\n"
        "print(json.dumps([before, [threading.active_count(), blas_thread_counts()]]))\n"
    )
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    before, after = json.loads(out.stdout)
    assert after == before


def test_blas_helper_imports_only_the_standard_library():
    tree = ast.parse((SRC / "doalab" / "blas.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not any(isinstance(node, ast.ImportFrom) and node.level for node in imports)
    names = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert "ctypes" in names
    assert {name.split(".")[0] for name in names} <= sys.stdlib_module_names


@pytest.mark.parametrize("length", [2, 8, 255, 256, 511, 512, 1024])
def test_hann_bit_equal_to_scipy(length):
    expected = scipy.signal.get_window("hann", length, fftbins=True)
    np.testing.assert_array_equal(analysis_window(length), expected)


def test_fft_size_is_next_fast_len():
    assert [_fft_size(n) for n in range(1, 5001)] == [scipy.fft.next_fast_len(n, True) for n in range(1, 5001)]


class TestOnePole:
    @pytest.mark.parametrize("length", [1, 2, 1000, 25_856, 200_000])
    def test_speech_cascade_matches_lfilter(self, length):
        x = np.random.default_rng(length).standard_normal(length)
        expected = scipy.signal.lfilter([1.0], [1.0, -0.9], x)
        expected = scipy.signal.lfilter([1.0, -1.0], [1.0, -0.995], expected)
        got = _one_pole(_one_pole(x, 0.9), 0.995, highpass=True)
        rms = np.sqrt(np.mean(expected**2))
        assert np.max(np.abs(got - expected)) <= 1e-12 * rms

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(
        a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        length=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        highpass=st.booleans(),
    )
    def test_matches_direct_recursion(self, a, length, seed, highpass):
        x = np.random.default_rng(seed).standard_normal(length)
        expected, prev_x, prev_y = [], 0.0, 0.0
        for value in x:
            prev_y = (value - prev_x if highpass else value) + a * prev_y
            prev_x = value
            expected.append(prev_y)
        got = _one_pole(x, a, highpass=highpass)
        # both sum a^j u[n - j] (u the filter input), in different orders: rounding of
        # at most min(length, 1 / (1 - a)) times the largest input
        u = np.diff(x, prepend=0.0) if highpass else x
        bound = 1e-13 * np.max(np.abs(u)) * min(length, 1.0 / (1.0 - a))
        np.testing.assert_allclose(got, expected, rtol=0, atol=bound)


@pytest.mark.parametrize("n, taps, rows", [(4000, 83, 4), (25_856, 4000, 8), (1000, 1, 3), (1, 7, 2)])
def test_convolve_matches_fftconvolve(n, taps, rows):
    rng = np.random.default_rng(n + taps)
    a = rng.standard_normal((1, n))
    b = rng.standard_normal((rows, taps))
    expected = scipy.signal.fftconvolve(a, b, axes=1)
    got = _convolve(a, b)
    assert got.shape == expected.shape == (rows, n + taps - 1)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


class TestWav:
    @pytest.mark.parametrize("channels", [1, 4])
    def test_write_bytes_equal_scipy(self, tmp_path, channels):
        sig = TimeSignal(np.random.default_rng(channels).uniform(-1.0, 1.0, (channels, 999)), FS)
        write_wav(tmp_path / "ours.wav", sig)
        data = sig.samples.T.astype(np.float32)
        scipy.io.wavfile.write(tmp_path / "scipy.wav", FS, data[:, 0] if channels == 1 else data)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("dtype, scale", [("<i2", 2**15), ("<i4", 2**31), ("<f4", 1), ("<f8", 1)])
    def test_read_agrees_with_scipy(self, tmp_path, channels, dtype, scale):
        rng = np.random.default_rng(channels)
        data = (rng.uniform(-0.99, 0.99, (501, channels)) * scale).astype(dtype)
        path = tmp_path / "x.wav"
        scipy.io.wavfile.write(path, 8000, data[:, 0] if channels == 1 else data)
        rate, expected = scipy.io.wavfile.read(path)
        sig = read_wav(path)
        assert sig.sample_rate == rate == 8000
        np.testing.assert_array_equal(sig.samples, np.atleast_2d(expected.T) / scale)

    def test_extensible_header_and_odd_extra_chunk(self, tmp_path):
        # WAVE_FORMAT_EXTENSIBLE with a float SubFormat, and a 3-byte LIST chunk (padded) before data
        data = np.random.default_rng(0).uniform(-1, 1, (40, 2)).astype("<f4")
        guid = struct.pack("<I", 3) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 2, FS, FS * 8, 8, 32, 22, 32, 3) + guid
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"LIST" + struct.pack("<I", 3) + b"abc\x00"
        body += b"data" + struct.pack("<I", data.nbytes) + data.tobytes()
        path = tmp_path / "ext.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        _, expected = scipy.io.wavfile.read(path)
        np.testing.assert_array_equal(read_wav(path).samples, expected.T)

    def test_partial_frame_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, TimeSignal(np.zeros((2, 10)), FS))
        raw = bytearray(path.read_bytes())
        raw[-84:-80] = struct.pack("<I", 78)  # data size no longer a multiple of 2 x 4 bytes
        path.write_bytes(bytes(raw[:-2]))
        with pytest.raises(ValueError, match="whole number of frames"):
            read_wav(path)
