"""CSV writing with versioned schemas and provenance header comments."""

from __future__ import annotations

from pathlib import Path


def format_value(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # full precision; normalizes numpy scalars
    return str(v)


def write_csv(path, schema: str, columns: list[str], rows, meta: dict | None = None) -> None:
    """Write rows as CSV with '# key: value' provenance headers.

    Output is deterministic for deterministic inputs (no timestamps).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# schema: {schema}"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} fields, expected {len(columns)}")
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def split_header(path) -> tuple[dict[str, str], list[str]]:
    """Split a file into its '# key: value' header and its body lines.

    Lines are stripped and blank ones dropped; a '#' line is a header line
    wherever it stands.
    """
    header: dict[str, str] = {}
    body: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        else:
            body.append(line)
    return header, body


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """Read a CSV written by ``write_csv``: (meta, columns, string rows)."""
    meta, body = split_header(path)
    if not body:
        raise ValueError(f"no column header found in {path}")
    return meta, body[0].split(","), [line.split(",") for line in body[1:]]
