"""Differential testing: the CLI sort vs GNU sort and Python sorted().

Random corpora per record format are piped through ``repro.cli sort``
and the output is compared *byte-for-byte* against independent oracles:

* ``sorted()`` over the decoded records, re-encoded through the same
  :class:`RecordFormat` — catches any loss, duplication or reordering
  introduced by the spill/merge machinery, for every format;
* ``LC_ALL=C sort`` (GNU coreutils; skipped when absent) for the
  formats whose on-disk ordering contract matches an external tool's:
  ``str`` is plain byte order and ``int`` is ``sort -n`` — an oracle
  that shares no code with this repository.

The default-suite slice covers every format once; the ``stress`` sweep
crosses memory budgets x merge buffer sizes x worker counts (the CI
resilience job runs it).  Corpora derive from ``REPRO_STRESS_SEED``.
"""

import os
import random
import shutil
import subprocess

import pytest

from _helpers import sha256_file, stress_case, stress_seed
from repro.cli import main
from repro.core.records import resolve_format

GNU_SORT = shutil.which("sort")


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def corpus_lines(fmt, n, *seed_parts):
    """Deterministic random lines for one format."""
    rng = random.Random(stress_seed("differential", fmt, n, *seed_parts))
    if fmt == "int":
        # Canonical encodings only (no +, no leading zeros), so GNU
        # sort -n emits byte-identical lines for equal keys.
        return [str(rng.randint(-10**9, 10**9)) for _ in range(n)]
    if fmt == "float":
        # repr() round-trips exactly and is the CLI's float encoding.
        lines = [repr(rng.uniform(-1e6, 1e6)) for _ in range(n - n // 8)]
        lines += [repr(float(rng.randint(-50, 50))) for _ in range(n // 8)]
        return lines
    if fmt == "str":
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" \
                   "0123456789 _-.:/"
        return [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            for _ in range(n)
        ]
    if fmt == "csv":
        # The key column mixes numeric and text tokens on purpose: the
        # type-ranked key order (numbers before text) must stay total.
        def key_token():
            roll = rng.random()
            if roll < 0.4:
                return str(rng.randint(-1000, 1000))
            if roll < 0.6:
                return f"{rng.uniform(-10, 10):.4f}"
            return "".join(
                rng.choice("abcdefgh") for _ in range(rng.randint(1, 6))
            )

        return [
            f"f{rng.randint(0, 99)},{key_token()},tail{rng.randint(0, 9)}"
            for _ in range(n)
        ]
    raise AssertionError(fmt)  # pragma: no cover


def write_corpus(tmp_path, fmt, n, *seed_parts):
    path = tmp_path / f"{fmt}.in"
    path.write_text(
        "".join(line + "\n" for line in corpus_lines(fmt, n, *seed_parts))
    )
    return path


def cli_format_args(fmt):
    if fmt == "csv":
        return ["--format", "csv", "--key", "1"]
    return [] if fmt == "int" else ["--format", fmt]


def record_format_for(fmt):
    return resolve_format("csv", key=1) if fmt == "csv" else resolve_format(fmt)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def python_reference(source, fmt):
    """sorted() over decoded records, re-encoded: the in-memory oracle."""
    record_format = record_format_for(fmt)
    with open(source, "r", encoding="utf-8") as handle:
        records = record_format.decode_block(handle.readlines())
    return record_format.encode_block(sorted(records))


def gnu_reference(source, fmt):
    """GNU sort's byte output, or None when no GNU oracle applies."""
    if GNU_SORT is None:
        return None
    if fmt == "str":
        flags = []
    elif fmt == "int":
        flags = ["-n"]
    else:
        return None  # float/csv encodings have no byte-exact GNU twin
    result = subprocess.run(
        [GNU_SORT, *flags, str(source)],
        capture_output=True,
        env={**os.environ, "LC_ALL": "C"},
        check=True,
    )
    return result.stdout


def run_differential_case(
    tmp_path, fmt, *, memory=64, merge_buffer=None, workers=1,
    records=2_000, binary=False,
):
    case = dict(
        fmt=fmt, memory=memory, merge_buffer=merge_buffer, workers=workers,
        binary=binary,
    )
    source = write_corpus(
        tmp_path, fmt, records, memory, merge_buffer, workers
    )
    out = tmp_path / f"{fmt}{'.bin' if binary else ''}.out"
    argv = ["sort", "--memory", str(memory), "--fan-in", "4",
            *cli_format_args(fmt)]
    if merge_buffer is not None:
        argv += ["--merge-buffer", str(merge_buffer)]
    if workers > 1:
        argv += ["--workers", str(workers)]
    if binary:
        argv += ["--binary-spill"]
    argv += [str(source), "-o", str(out)]
    assert main(argv) == 0, stress_case(**case)

    got = out.read_bytes()
    want = python_reference(source, fmt).encode("utf-8")
    assert got == want, (
        "CLI output differs from Python sorted() oracle: "
        + stress_case(**case)
    )
    gnu = gnu_reference(source, fmt)
    if gnu is not None:
        assert got == gnu, (
            "CLI output differs from LC_ALL=C GNU sort oracle: "
            + stress_case(**case)
        )
    return out


FORMATS = ["int", "float", "str", "csv"]


class TestDifferentialSmoke:
    """Every format once, spilling memory budget, default merge buffer."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_format_against_oracles(self, tmp_path, fmt):
        run_differential_case(tmp_path, fmt)

    @pytest.mark.skipif(GNU_SORT is None, reason="GNU sort not installed")
    def test_gnu_oracle_actually_used(self, tmp_path):
        # Guard against the GNU comparison silently short-circuiting.
        assert gnu_reference(write_corpus(tmp_path, "str", 50), "str")

    def test_in_memory_path_matches_oracles(self, tmp_path):
        run_differential_case(tmp_path, "int", memory=50_000, records=1_000)

    def test_backends_byte_identical(self, tmp_path):
        serial = run_differential_case(tmp_path, "int", workers=1)
        parallel = run_differential_case(tmp_path, "int", workers=2)
        assert sha256_file(serial) == sha256_file(parallel)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_binary_spill_matches_text_and_oracles(self, tmp_path, fmt):
        """--binary-spill output equals the text path's byte for byte
        (both already checked against sorted() and GNU sort)."""
        text = run_differential_case(tmp_path, fmt)
        binary = run_differential_case(tmp_path, fmt, binary=True)
        assert sha256_file(text) == sha256_file(binary)


@pytest.mark.stress
class TestDifferentialStress:
    """memory budgets x merge buffer sizes x formats, plus workers."""

    @pytest.mark.parametrize("memory", [32, 257, 4_096])
    @pytest.mark.parametrize("merge_buffer", [None, 64, 7])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_serial_sweep(self, tmp_path, fmt, merge_buffer, memory):
        run_differential_case(
            tmp_path, fmt, memory=memory, merge_buffer=merge_buffer,
            records=6_000,
        )

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_parallel_sweep(self, tmp_path, fmt):
        run_differential_case(
            tmp_path, fmt, memory=128, workers=2, records=6_000
        )

    @pytest.mark.parametrize("memory", [32, 4_096])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_binary_sweep(self, tmp_path, fmt, workers, memory):
        """Binary and text paths stay byte-identical under stress."""
        text = run_differential_case(
            tmp_path, fmt, memory=memory, workers=workers, records=6_000
        )
        binary = run_differential_case(
            tmp_path, fmt, memory=memory, workers=workers, records=6_000,
            binary=True,
        )
        assert sha256_file(text) == sha256_file(binary)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("fmt", ["int", "csv"])
    def test_durable_checksummed_sweep(self, tmp_path, fmt, binary):
        """--resume --checksum must not change a fault-free sort's bytes."""
        source = write_corpus(tmp_path, fmt, 4_000, "durable")
        plain = tmp_path / "plain.out"
        durable = tmp_path / "durable.out"
        base = ["sort", "--memory", "64", *cli_format_args(fmt)]
        if binary:
            base += ["--binary-spill"]
        assert main(base + [str(source), "-o", str(plain)]) == 0
        assert main(
            base + ["--resume", "--checksum", str(source), "-o", str(durable)]
        ) == 0
        assert sha256_file(plain) == sha256_file(durable)
