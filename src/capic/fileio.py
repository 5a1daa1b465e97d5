"""Deterministic file output helpers, and the opening and reading of input files.

Artifacts are written atomically (temp file in the target directory,
then rename) and contain no timestamps, so rerunning a configuration
with the same numpy/BLAS build and the same BLAS thread count
reproduces every output byte for byte.  Across thread counts the
floating-point reductions run in another order and the numbers can
differ in the last digits.

One CSV formatter, :func:`_lines`, gives every table its lines: ``\n``
line ends, the csv module's quoting, floats by ``repr`` so they read
back exactly.  One atomic-file core, :class:`_AtomicFile`, gives every
artifact its temp file, mode and rename.  There are two sinks:
:func:`write_csv_atomic` streams a table's lines into its file one row
at a time, so no table is held as one text, and
:func:`write_text_atomic` writes one ``str`` (JSON, SVG, and a plane's
CSV, joined by :func:`csv_text`).  One CSV reader, :func:`csv_records`,
reads every input table and gives each record the physical line it
starts on, for error messages.
"""

from __future__ import annotations

import csv
import hashlib
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


class _AtomicFile:
    """``with _AtomicFile(path) as fh``: the text written to ``fh`` lands at ``path`` whole.

    ``fh`` is a temp file in ``path``'s directory.  When the block ends
    cleanly the file gets the mode a plain ``open(path, "w")`` would
    give it, ``0o666`` less the umask (``mkstemp`` makes it 0600), and is
    renamed to ``path``.  When the block raises the temp file is removed
    and a file already at ``path`` is left as it was.
    """

    def __init__(self, path):
        self.path = os.fspath(path)

    def __enter__(self):
        directory = os.path.dirname(self.path) or "."
        fd, self.tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        self.fh = os.fdopen(fd, "w")
        return self.fh

    def __exit__(self, kind, value, traceback):
        try:
            self.fh.close()
            if kind is None:
                os.chmod(self.tmp, 0o666 & ~_umask())
                os.replace(self.tmp, self.path)
        finally:
            if os.path.exists(self.tmp):
                os.unlink(self.tmp)


def write_text_atomic(path, text: str):
    """Write ``text``, one ``str``, to ``path`` through :class:`_AtomicFile`."""
    with _AtomicFile(path) as fh:
        fh.write(text)


def _line(row) -> str:
    """One CSV line of ``row``'s cells, without its line end (see :func:`_lines`)."""
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


def _lines(header, rows):
    """The lines of a header row and data rows, line ends included, one row at a time.

    These are the csv module's bytes.  A float (a numpy one too) is
    written by ``repr``, so it reads back exactly; any other cell as
    ``str(cell)``, quoted when it holds a comma, a quote or a newline
    (a ``\r`` alone is not quoted).  A cell that is a 1-D numpy array
    stands for its values, each written by ``repr``: pass a wide table as
    ``zip(labels, matrix)``, so that its rows are formatted one at a time.
    A row of one empty cell is written ``""``, as the csv module writes
    it, to tell it from an empty row.
    """
    yield _line(header) + "\n"
    for row in rows:
        yield _line(row) + "\n"


def csv_text(header, rows) -> str:
    """CSV text of a header row and data rows, with ``\n`` line ends (see :func:`_lines`)."""
    return "".join(_lines(header, rows))


def write_csv_atomic(path, header, rows):
    """Write the CSV of :func:`csv_text` to ``path``, streamed through :class:`_AtomicFile`.

    Each row is formatted and written in turn, so the file's text is
    never held whole.  A row that raises leaves no file behind and a
    file already at ``path`` as it was.
    """
    with _AtomicFile(path) as fh:
        fh.writelines(_lines(header, rows))


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, stable float repr, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json_atomic(path, obj):
    write_text_atomic(path, dump_json(obj))


def sha256_of_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
