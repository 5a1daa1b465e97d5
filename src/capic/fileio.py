"""Deterministic file output helpers, and the opening and reading of input files.

Artifacts are written atomically (temp file in the target directory,
then rename) and contain no timestamps, so rerunning a configuration
with the same numpy/BLAS build and the same BLAS thread count
reproduces every output byte for byte.  Across thread counts the
floating-point reductions run in another order and the numbers can
differ in the last digits.

Two CSV writers share one format (``\n`` line ends, the csv module's
quoting, floats by ``repr`` so they read back exactly):

* :func:`csv_text` writes small tables of mixed cells (loss history,
  scores, per-value factor tables, a factor plane's preamble) row by row
  through the csv module.
* :func:`labelled_csv_text` writes the large tables row by row: a label
  per row, then a row of floats (svd-mode and per-sample factor tables,
  a factor plane's points), the bytes :func:`csv_text` would give.

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


def csv_text(header, rows) -> str:
    """CSV text of a header row and data rows, with ``\n`` line ends.

    The csv module quotes cells that hold a comma, a quote or a
    newline.  Floats (numpy ones too) are written with ``repr``, so they
    read back exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(cell)) if isinstance(cell, float) else cell for cell in row]
        for row in rows
    )
    return buf.getvalue()


def _cell(value) -> str:
    """``str(value)`` as one CSV cell, quoted as the csv module quotes it."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text])
        return buf.getvalue()[:-1]
    return text


def labelled_csv_text(head: str, blocks) -> str:
    """The text ``head`` (say, from :func:`csv_text`), then blocks of labelled float rows.

    Each block is ``(lead, labels, rows)``: row ``i`` of the 2-D ``rows``
    is written as the cells of ``lead``, ``str(labels[i])`` and the row's
    values by ``repr``, the same bytes :func:`csv_text` gives such a row.
    Labels beyond the rows are ignored; too few raise ``IndexError``.
    """
    buf = io.StringIO()
    buf.write(head)
    for lead, labels, rows in blocks:
        if len(labels) < len(rows):
            raise IndexError(f"{len(labels)} labels for {len(rows)} rows")
        if rows.shape[1] == 0:
            csv.writer(buf, lineterminator="\n").writerows(
                [*lead, str(labels[i])] for i in range(len(rows))
            )
            continue
        prefix = "".join(_cell(cell) + "," for cell in lead)
        for label, values in zip(labels, rows):  # a wide table is not held as text twice
            buf.write(f"{prefix}{_cell(label)},{','.join(map(repr, values.tolist()))}\n")
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
