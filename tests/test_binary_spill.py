"""Regression tests for the binary spill path (ISSUE 7 satellites).

Four families, each pinning a bug class the text path hides:

* **Float key order** (satellite 1) — ``-0.0`` vs ``0.0``, equal
  values under different spellings (``1e3`` vs ``1000.0``), and the
  infinities must sort stably, round-trip byte-identically, and agree
  with ``sorted()`` and GNU ``sort -g``.
* **Delimited empty vs missing key columns** (satellite 2) — an empty
  field (``a,,c`` with ``--key 1``) is data and sorts as the empty
  text key; a missing column (``a`` with ``--key 1``) is malformed and
  raises the same ``ValueError`` on every backend, text or binary.
* **Framing self-defence** (satellite 3) — payload lines that look
  like ``#repro:blk`` headers survive checksummed text framing via
  escaping; binary RBLK framing is length-driven so look-alike bytes
  are inert; torn or corrupted binary blocks raise
  :class:`CorruptBlockError` naming what broke.
* **Hot-loop decode budget** (tentpole acceptance) — a counting format
  proves the spill+merge pipeline performs *zero* per-record
  ``decode``/``decode_block``/``key`` calls after input parsing, the
  invariant lint rule R007 guards statically.

Plus the resume-fingerprint encoding rule and the join format
compatibility errors that keep raw-byte keys from silently comparing
against decoded ones.
"""

import math
import os
import shutil
import struct
import subprocess

import pytest

from _helpers import sha256_file
from repro.cli import main
from repro.core.config import RECOMMENDED, GeneratorSpec
from repro.core.records import (
    FLOAT,
    INT,
    STR,
    BinaryRecordFormat,
    DelimitedFormat,
    KeyOnlyRecord,
    binary_format,
)
from repro.engine.block_io import (
    BINARY_BLOCK_MAGIC,
    ESCAPE_TOKEN,
    BlockWriter,
    open_bytes,
    open_text,
    read_blocks,
)
from repro.engine.errors import CorruptBlockError
from repro.engine.planner import SortEngine
from repro.engine.resilience import ResumableSpillSort
from repro.ops.join import _check_key_compatibility

GNU_SORT = shutil.which("sort")

SPILL_MEMORY = 8  # records; small enough that every corpus here spills


def cli_sort(tmp_path, lines, *extra, name="out"):
    """Run ``repro sort`` in-process; returns the output bytes."""
    source = tmp_path / f"{name}.in"
    source.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / f"{name}.out"
    argv = ["sort", "--memory", str(SPILL_MEMORY), "--fan-in", "3",
            *extra, str(source), "-o", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def sorted_oracle(lines, fmt):
    """Stable ``sorted()`` over decoded records, re-encoded."""
    records = fmt.decode_block([line + "\n" for line in lines])
    return fmt.encode_block(sorted(records)).encode("utf-8")


# ---------------------------------------------------------------------------
# satellite 1: float key order
# ---------------------------------------------------------------------------


class TestFloatKeyOrder:
    """The spellings users actually write: signed zeros, scientific
    notation, infinities.  Equal *values* compare equal, so stability
    (input order) decides their output order — and every path must
    agree on it while preserving each spelling byte-for-byte."""

    ZEROS = ["0.0", "-0.0", "1.5", "-0.0", "0.0", "-1.5", "0.0",
             "-0.0", "0.5", "-0.5", "0.0"]

    SPELLINGS = ["1e3", "1000.0", "2.5", "1E3", "1e+3", "999.0",
                 "1000.0", "0.001", "1e-3", "1001.0", "1e3"]

    INFINITIES = ["inf", "-inf", "0.0", "1e308", "-1e308", "inf",
                  "-inf", "42.5", "-inf", "inf"]

    @pytest.mark.parametrize("lines", [ZEROS, SPELLINGS, INFINITIES],
                             ids=["zeros", "spellings", "infinities"])
    def test_text_and_binary_byte_identical(self, tmp_path, lines):
        """The tentpole guarantee on the spellings that expose it.

        Equal-value groups have no *stable* order through replacement
        selection (text or binary — runs reorder equals), so the
        contract is: binary reproduces the text path's bytes exactly,
        values are non-decreasing, and no line is lost or altered.
        """
        corpus = lines * 4  # spill at SPILL_MEMORY records
        text = cli_sort(tmp_path, corpus, "--format", "float", name="t")
        binary = cli_sort(tmp_path, corpus, "--format", "float",
                          "--binary-spill", name="b")
        assert text == binary
        out = text.decode("utf-8").splitlines()
        values = [float(line) for line in out]
        assert values == sorted(values)
        assert sorted(out) == sorted(corpus)

    @pytest.mark.parametrize("lines", [ZEROS, SPELLINGS, INFINITIES],
                             ids=["zeros", "spellings", "infinities"])
    def test_parallel_binary_matches_parallel_text(self, tmp_path, lines):
        """Same guarantee on the partitioned backend.  (Parallel and
        serial may legitimately order equal-key groups differently —
        sharding changes merge order — so the comparison is within the
        backend, the same identity the differential suite sweeps.)"""
        corpus = lines * 4
        text = cli_sort(tmp_path, corpus, "--format", "float",
                        "--workers", "2", name="s")
        binary = cli_sort(tmp_path, corpus, "--format", "float",
                          "--binary-spill", "--workers", "2", name="p")
        assert text == binary

    def test_spellings_round_trip_byte_identically(self, tmp_path):
        """``-0.0`` stays ``-0.0`` and ``1e3`` stays ``1e3``: the
        payload is the original text, never a re-``repr``."""
        corpus = (self.ZEROS + self.SPELLINGS) * 3
        out = cli_sort(tmp_path, corpus, "--format", "float",
                       "--binary-spill")
        got = sorted(out.decode("utf-8").splitlines())
        assert got == sorted(corpus)

    @pytest.mark.parametrize("algorithm", ["2wrs", "rs", "lss"])
    def test_negative_zero_group_matches_text_path_exactly(
        self, tmp_path, algorithm
    ):
        """All spellings of zero are one equal-key group; the binary
        path must emit that group in exactly the text path's order —
        the bug class the key codec's ``-0.0`` canonicalisation fixes
        (IEEE bytes would split the group: ``-0.0`` before ``0.0``).
        The order is per algorithm: each run generator may order an
        equal group differently, text and binary never do."""
        corpus = ["-0.0", "7.0", "0.0", "-7.0", "0.0", "-0.0"] * 5
        text = cli_sort(tmp_path, corpus, "--format", "float",
                        "--algorithm", algorithm, name="t")
        binary = cli_sort(tmp_path, corpus, "--format", "float",
                          "--algorithm", algorithm, "--binary-spill",
                          name="b")
        zeros = [line for line in binary.decode("utf-8").splitlines()
                 if float(line) == 0.0]
        assert zeros == [line for line in text.decode("utf-8").splitlines()
                         if float(line) == 0.0]
        assert sorted(zeros) == ["-0.0"] * 10 + ["0.0"] * 10

    @pytest.mark.parametrize("algorithm", ["2wrs", "rs", "lss"])
    def test_spelling_groups_match_text_path_exactly(self, tmp_path, algorithm):
        """Twin of the zero group for ``v``/``v.0``/``ve0``/``v.00``
        spellings of one value: deterministic, and text and binary
        spill agree byte for byte within one algorithm."""
        corpus = [spelling.format(v) for v in (3, 1, 2) * 6
                  for spelling in ("{}", "{}.0", "{}e0", "{}.00")]
        runs = [
            cli_sort(tmp_path, corpus, "--format", "float",
                     "--algorithm", algorithm, *extra, name=name)
            for name, extra in (("t", []), ("b", ["--binary-spill"]),
                                ("t2", []))
        ]
        assert runs[0] == runs[1] == runs[2]
        out = runs[0].decode("utf-8").splitlines()
        assert [float(line) for line in out] == sorted(map(float, corpus))
        assert sorted(out) == sorted(corpus)

    @pytest.mark.skipif(GNU_SORT is None, reason="GNU sort not installed")
    def test_infinities_agree_with_gnu_sort_g(self, tmp_path):
        """Distinct values only (GNU sort is not stable), including the
        infinities: ``sort -g`` is an oracle sharing no code with us."""
        corpus = ["inf", "-inf", "1e308", "-1e308", "0.5", "-0.5",
                  "3.25", "-3.25", "1e-300", "-1e-300", "123.0"] * 1
        source = tmp_path / "gnu.in"
        source.write_text("".join(line + "\n" for line in corpus))
        gnu = subprocess.run(
            [GNU_SORT, "-g", str(source)], capture_output=True,
            env={**os.environ, "LC_ALL": "C"}, check=True,
        ).stdout
        for flags in ([], ["--binary-spill"]):
            got = cli_sort(tmp_path, corpus * 4, "--format", "float", *flags,
                           name="gnu" + ("b" if flags else "t"))
            # corpus * 4: each distinct line appears 4x consecutively
            # in sorted output; collapse back for the distinct oracle.
            collapsed = "".join(
                line + "\n"
                for i, line in enumerate(got.decode("utf-8").splitlines())
                if i % 4 == 0
            ).encode("utf-8")
            assert collapsed == gnu


# ---------------------------------------------------------------------------
# satellite 2: delimited empty vs missing key columns
# ---------------------------------------------------------------------------


class TestDelimitedEmptyVsMissing:
    EMPTY_KEY_CORPUS = ["a,,c", "b,2,x", "c,zz,y", "d,1.5,w", "e,,q",
                        "f,-3,r", "g,abc,s", "h,,t"] * 4

    def test_empty_field_is_the_empty_text_key(self):
        fmt = DelimitedFormat(",", key_column=1)
        assert fmt.key(fmt.decode("a,,c")) == (1, "")
        # Numbers rank before text; "" ranks before non-empty text.
        keys = sorted(
            fmt.key(fmt.decode(row)) for row in ("c,zz,y", "a,,c", "b,2,x")
        )
        assert keys == [(0, 2), (1, ""), (1, "zz")]

    def test_empty_key_identical_across_backends(self, tmp_path):
        args = ["--format", "csv", "--key", "1"]
        want = sorted_oracle(
            self.EMPTY_KEY_CORPUS, DelimitedFormat(",", key_column=1)
        )
        outputs = {
            "text": cli_sort(tmp_path, self.EMPTY_KEY_CORPUS, *args,
                             name="text"),
            "binary": cli_sort(tmp_path, self.EMPTY_KEY_CORPUS, *args,
                               "--binary-spill", name="bin"),
            "parallel": cli_sort(tmp_path, self.EMPTY_KEY_CORPUS, *args,
                                 "--workers", "2", name="par"),
            "parallel-binary": cli_sort(
                tmp_path, self.EMPTY_KEY_CORPUS, *args, "--workers", "2",
                "--binary-spill", name="parbin"),
        }
        for backend, got in outputs.items():
            assert got == want, f"{backend} diverges on empty key fields"

    def test_empty_key_identical_through_ops(self, tmp_path):
        """The ops backend (distinct) sees the same empty-key order."""
        source = tmp_path / "ops.in"
        source.write_text(
            "".join(row + "\n" for row in self.EMPTY_KEY_CORPUS)
        )
        outs = []
        for suffix, flags in (("t", []), ("b", ["--binary-spill"])):
            out = tmp_path / f"ops.{suffix}.out"
            assert main(
                ["distinct", "--memory", str(SPILL_MEMORY), "--format",
                 "csv", "--key", "1", *flags, str(source), "-o", str(out)]
            ) == 0
            outs.append(out)
        assert sha256_file(outs[0]) == sha256_file(outs[1])
        # distinct dedupes whole records; the three empty-key rows are
        # distinct rows and land together: after every numeric key,
        # before every non-empty text key, tie-broken by row text.
        got = outs[0].read_text().splitlines()
        assert got == ["f,-3,r", "d,1.5,w", "b,2,x", "a,,c", "e,,q",
                       "h,,t", "g,abc,s", "c,zz,y"]

    MISSING = r"row has 1 column\(s\), key column 1 does not exist: 'a'"

    def test_missing_column_raises_at_decode(self):
        fmt = DelimitedFormat(",", key_column=1)
        with pytest.raises(ValueError, match=self.MISSING):
            fmt.decode("a")
        with pytest.raises(ValueError, match=self.MISSING):
            binary_format(fmt).decode("a")

    @pytest.mark.parametrize("flags", [[], ["--binary-spill"]],
                             ids=["text", "binary"])
    def test_missing_column_raises_in_cli_sort(self, tmp_path, flags):
        source = tmp_path / "missing.in"
        source.write_text("a\nb,2,x\n")
        with pytest.raises(ValueError, match=self.MISSING):
            main(["sort", "--format", "csv", "--key", "1", *flags,
                  str(source), "-o", str(tmp_path / "missing.out")])

    @pytest.mark.parametrize("flags", [[], ["--binary-spill"]],
                             ids=["text", "binary"])
    def test_missing_column_fails_ops_with_same_message(
        self, tmp_path, flags, capsys
    ):
        source = tmp_path / "missing.in"
        source.write_text("a\nb,2,x\n")
        code = main(["distinct", "--format", "csv", "--key", "1", *flags,
                     str(source), "-o", str(tmp_path / "missing.out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row has 1 column(s), key column 1 does not exist" in err


# ---------------------------------------------------------------------------
# satellite 3: framing self-defence
# ---------------------------------------------------------------------------


HOSTILE_LINES = [
    "#repro:blk 3 deadbeef",       # a plausible forged header
    "#repro:blk 0 00000000",
    "#repro:esc #repro:blk 1 11111111",  # an already-escaped look-alike
    "#repro: anything",
    "plain data",
    "RBLK not a header",
    "",
]


class TestFramingSelfDefence:
    def test_checksummed_text_escapes_header_lookalikes(self, tmp_path):
        path = tmp_path / "hostile.txt"
        with open_text(str(path), "w") as handle:
            writer = BlockWriter(handle, STR, block_records=3,
                                 checksum=True)
            writer.write_all(iter(HOSTILE_LINES))
            writer.flush()
        raw = path.read_text()
        assert ESCAPE_TOKEN in raw, "look-alike data lines must be escaped"
        with open_text(str(path), "r") as handle:
            got = [
                record
                for block in read_blocks(handle, STR, checksum=True)
                for record in block
            ]
        assert got == HOSTILE_LINES

    @pytest.mark.parametrize("checksum", [False, True])
    def test_binary_framing_is_inert_to_lookalike_bytes(
        self, tmp_path, checksum
    ):
        """RBLK bodies are consumed by byte length, never scanned, so
        payloads spelling ``RBLK`` or ``#repro:blk`` cannot confuse the
        reader."""
        fmt = binary_format(STR)
        records = fmt.decode_block([line + "\n" for line in HOSTILE_LINES])
        path = tmp_path / "hostile.bin"
        with open_bytes(str(path), "w") as handle:
            writer = BlockWriter(handle, fmt, block_records=2,
                                 checksum=checksum)
            writer.write_all(records)
            writer.flush()
        assert BINARY_BLOCK_MAGIC in path.read_bytes()
        with open_bytes(str(path), "r") as handle:
            got = [
                record
                for block in read_blocks(handle, fmt, checksum=checksum)
                for record in block
            ]
        assert got == records
        assert fmt.encode_block(got) == "".join(
            line + "\n" for line in HOSTILE_LINES
        )

    def test_cli_durable_sort_survives_hostile_payloads(self, tmp_path):
        """End to end: spilling + ``--checksum`` runs hold forged
        header lines as data, for both encodings (the fault-harness
        regression this satellite started from)."""
        corpus = [line for line in HOSTILE_LINES if line] * 6
        want = sorted_oracle(corpus, STR)
        for name, flags in (("text", []), ("bin", ["--binary-spill"])):
            got = cli_sort(
                tmp_path, corpus, "--format", "str", "--checksum",
                "--resume", "--work-dir", str(tmp_path / f"wd-{name}"),
                *flags, name=name,
            )
            assert got == want, f"{name} mangled header-lookalike payloads"

    # -- torn / corrupted binary files ------------------------------------

    def _binary_file(self, tmp_path, checksum=True):
        fmt = binary_format(STR)
        path = tmp_path / "blocks.bin"
        with open_bytes(str(path), "w") as handle:
            writer = BlockWriter(handle, fmt, block_records=4,
                                 checksum=checksum)
            writer.write_all(fmt.decode(f"record-{i}") for i in range(8))
            writer.flush()
        return path, fmt

    def _read_all(self, path, fmt, checksum=True):
        with open_bytes(str(path), "r") as handle:
            return [
                record for block in read_blocks(handle, fmt,
                                                checksum=checksum)
                for record in block
            ]

    def test_bad_magic_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptBlockError, match="magic"):
            self._read_all(path, fmt)

    def test_truncated_header_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(CorruptBlockError, match="truncated.*header"):
            self._read_all(path, fmt)

    def test_truncated_body_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(CorruptBlockError, match="truncated"):
            self._read_all(path, fmt)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path, fmt = self._binary_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last payload byte: lengths stay consistent
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptBlockError, match="checksum mismatch"):
            self._read_all(path, fmt)

    def test_unchecked_read_skips_crc_but_not_structure(self, tmp_path):
        """Without ``checksum`` the CRC is not verified (contract match
        with the text path) — but structural tears still raise."""
        path, fmt = self._binary_file(tmp_path, checksum=False)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        got = self._read_all(path, fmt, checksum=False)
        assert len(got) == 8  # flipped byte read back as (wrong) data
        path.write_bytes(bytes(data[:-3]))
        with pytest.raises(CorruptBlockError):
            self._read_all(path, fmt, checksum=False)

    def test_record_length_overrun_detected(self, tmp_path):
        path, fmt = self._binary_file(tmp_path, checksum=False)
        data = bytearray(path.read_bytes())
        header_size = struct.calcsize(">4sIII")
        # First record's key length claims more bytes than the body has.
        struct.pack_into(">I", data, header_size, 2 ** 20)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptBlockError, match="malformed|overrun"):
            self._read_all(path, fmt, checksum=False)


# ---------------------------------------------------------------------------
# tentpole acceptance: zero per-record decodes in spill + merge
# ---------------------------------------------------------------------------


class CountingBinaryFormat(BinaryRecordFormat):
    """Binary wrapper that counts the calls R007 bans from hot loops."""

    def __init__(self, base):
        super().__init__(base)
        self.decode_calls = 0
        self.decode_block_calls = 0
        self.key_calls = 0

    def decode(self, text):
        self.decode_calls += 1
        return super().decode(text)

    def decode_block(self, lines):
        self.decode_block_calls += 1
        return super().decode_block(lines)

    def key(self, record):
        self.key_calls += 1
        return super().key(record)

    def reset(self):
        self.decode_calls = self.decode_block_calls = self.key_calls = 0


class TestZeroDecodeHotLoop:
    """Once input text has become ``(key bytes, payload bytes)``
    records, the whole spill + merge pipeline runs on raw bytes: no
    decode, no key extraction, per record or per block.  This is the
    runtime twin of lint rule R007's static guarantee."""

    @pytest.mark.parametrize("base,lines", [
        (INT, [str((i * 7919) % 1000) for i in range(400)]),
        (FLOAT, [repr(((i * 31) % 97) / 8.0) for i in range(400)]),
        (DelimitedFormat(",", key_column=1),
         [f"r{i},{(i * 613) % 500},t" for i in range(400)]),
    ], ids=["int", "float", "csv"])
    def test_spilling_sort_never_decodes_after_parse(
        self, tmp_path, base, lines
    ):
        fmt = CountingBinaryFormat(base)
        records = fmt.decode_block([line + "\n" for line in lines])
        assert fmt.decode_calls + fmt.decode_block_calls > 0
        fmt.reset()

        engine = SortEngine(
            GeneratorSpec("2wrs", 16, RECOMMENDED),
            record_format=fmt,
            fan_in=3,
            tmp_dir=str(tmp_path),
        )
        got = list(engine.sort(records, input_records=len(records)))
        assert engine.plan is not None and engine.plan.mode == "spill"
        assert [r[0] for r in got] == sorted(r[0] for r in records)

        assert fmt.decode_calls == 0, "spill/merge decoded a record"
        assert fmt.decode_block_calls == 0, "spill/merge decoded a block"
        assert fmt.key_calls == 0, "spill/merge re-extracted a key"


# ---------------------------------------------------------------------------
# resume fingerprint: encoding is part of the journal contract
# ---------------------------------------------------------------------------


class TestResumeFingerprint:
    def test_encoding_field_separates_binary_from_text(self, tmp_path):
        def fingerprint(fmt):
            return ResumableSpillSort(
                memory=16, work_dir=str(tmp_path / "wd"),
                record_format=fmt,
            ).fingerprint()

        text = fingerprint(INT)
        binary = fingerprint(binary_format(INT))
        assert text["encoding"] == "text"
        assert binary["encoding"] == "binary"
        # Everything else being equal, the encodings must not resume
        # into each other: their run files are mutually unreadable.
        assert {k: v for k, v in text.items()
                if k not in ("encoding", "format")} == \
               {k: v for k, v in binary.items()
                if k not in ("encoding", "format")}
        assert text != binary


# ---------------------------------------------------------------------------
# join compatibility: raw bytes only compare against raw bytes
# ---------------------------------------------------------------------------


class TestJoinBinaryCompatibility:
    def test_mixed_binary_and_text_sides_rejected(self):
        with pytest.raises(ValueError, match="both sides or neither"):
            _check_key_compatibility(binary_format(INT), INT)
        with pytest.raises(ValueError, match="both sides or neither"):
            _check_key_compatibility(FLOAT, binary_format(FLOAT))

    def test_binary_scalar_layouts_must_match(self):
        with pytest.raises(ValueError, match="byte layouts differ"):
            _check_key_compatibility(
                binary_format(INT), binary_format(FLOAT)
            )

    def test_compatible_binary_pairs_accepted(self):
        _check_key_compatibility(binary_format(INT), binary_format(INT))
        # Delimited keys share one component layout across delimiters.
        _check_key_compatibility(
            binary_format(DelimitedFormat(",", key_column=1)),
            binary_format(DelimitedFormat("\t", key_column=0)),
        )

    def test_binary_float_records_stay_key_only(self):
        """The join's grouped() equality must see equal floats as one
        group even when their key bytes came from different spellings
        — guaranteed because the codec maps equal values to equal
        bytes and KeyOnlyRecord compares keys only."""
        fmt = binary_format(FLOAT)
        a = fmt.decode("1e3")
        b = fmt.decode("1000.0")
        assert isinstance(a, KeyOnlyRecord)
        assert a == b and not (a < b) and not (b < a)
        assert fmt.encode(a) == "1e3" and fmt.encode(b) == "1000.0"
        assert math.isinf(fmt.decode("inf").value)
