"""CSV emission with a trailing integrity line.

Every CSV ends with ``# sha256=<hex>`` over the preceding bytes, so outputs
can be compared and verified byte-for-byte across reruns.
"""

from __future__ import annotations

import hashlib
import math

from .data import DataError


def fmt(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(float(value))  # np.float64's repr names its type
    return str(value)


def write_csv(path, header, rows, comments=()):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    for comment in comments:
        lines.append(f"# {comment}")
    body = "\n".join(lines) + "\n"
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
        fh.write(f"# sha256={checksum}\n")


def read_csv(path):
    """Read back a report CSV; returns (header, rows of strings, comments)."""
    header, rows, comments = None, [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    comments.append(line[1:].strip())
                elif header is None:
                    header = line.split(",")
                else:
                    rows.append(line.split(","))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    return header, rows, comments


def verify_csv(path):
    """Check the trailing sha256 line matches the file body."""
    with open(path, "rb") as fh:
        data = fh.read()
    marker = b"# sha256="
    pos = data.rfind(marker)
    if pos < 0:
        return False
    body, tail = data[:pos], data[pos + len(marker):].strip()
    return hashlib.sha256(body).hexdigest().encode() == tail
