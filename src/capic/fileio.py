"""Deterministic file output helpers, and the opening and reading of input files.

Artifacts are written atomically (temp file in the target directory,
then rename) and contain no timestamps, so rerunning a configuration
with the same numpy/BLAS build and the same BLAS thread count
reproduces every output byte for byte.  Across thread counts the
floating-point reductions run in another order and the numbers can
differ in the last digits.

One CSV writer, :func:`csv_text`, writes every table: ``\n`` line ends,
the csv module's quoting, floats by ``repr`` so they read back exactly.
One CSV reader, :func:`csv_records`, reads every input table and gives
each record the physical line it starts on, for error messages.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from .errors import ContractViolationError, CsvParseError


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def open_input(path, newline=None):
    """``open(path)`` for reading; an unreadable path raises a typed error naming it."""
    try:
        return open(path, newline=newline)
    except OSError as exc:
        raise ContractViolationError(f"cannot read {path}: {exc.strerror}") from None


def csv_records(fh, context):
    """``(line, fields)`` per CSV record of ``fh``: a quoted newline makes a record span lines.

    A record the csv module rejects raises :class:`CsvParseError`, ``f"{context}: {reason}"``.
    """
    reader = csv.reader(fh)
    line = 1
    try:
        for fields in reader:
            yield line, fields
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CsvParseError(f"{context}: {exc}", line=line) from None


def read_json_object(path) -> dict:
    """The JSON object stored at ``path``; other content raises a typed error naming it."""
    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ContractViolationError(f"{path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ContractViolationError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


def write_text_atomic(path, text: str):
    """Write ``text`` to ``path`` through a temp file and a rename.

    The file gets the mode a plain ``open(path, "w")`` would give it,
    ``0o666`` less the umask (``mkstemp`` makes the temp file 0600).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _line(row) -> str:
    """One CSV line of ``row``'s cells, without its line end (see :func:`csv_text`)."""
    cells = []
    for cell in row:
        if isinstance(cell, np.ndarray):
            cells += map(repr, cell.tolist())
        elif isinstance(cell, float):
            cells.append(repr(float(cell)))
        else:
            text = str(cell)
            if "," in text or '"' in text or "\n" in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
    return '""' if cells == [""] else ",".join(cells)


def csv_text(header, rows) -> str:
    """CSV text of a header row and data rows, with ``\n`` line ends.

    These are the csv module's bytes.  A float (a numpy one too) is
    written by ``repr``, so it reads back exactly; any other cell as
    ``str(cell)``, quoted when it holds a comma, a quote or a newline
    (a ``\r`` alone is not quoted).  A cell that is a 1-D numpy array
    stands for its values, each written by ``repr``: pass a wide table as
    ``zip(labels, matrix)``, so that its rows are formatted one at a time.
    A row of one empty cell is written ``""``, as the csv module writes
    it, to tell it from an empty row.
    """
    buf = io.StringIO()
    buf.write(_line(header) + "\n")
    for row in rows:  # a wide table is not held as Python floats all at once
        buf.write(_line(row) + "\n")
    return buf.getvalue()


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, stable float repr, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json_atomic(path, obj):
    write_text_atomic(path, dump_json(obj))


def sha256_of_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
