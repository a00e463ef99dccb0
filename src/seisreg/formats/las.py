"""LAS 2.0 well log reader and a minimal writer.

Reads the ~V/~W/~C/~A sections of unwrapped LAS 2.0 text.  Data rows are
whitespace-split; cells equal to the NULL sentinel become NaN (the explicit
missing marker for 1-D logs).  The ~A block is parsed by one `np.loadtxt`
call; when that refuses the block or gives it another shape, the rows are
parsed one by one with `float()`, which also reads `1_0` and non-ASCII
digits and names the first bad row.  The writer renders the ~A block with
one full-precision (%.17g) format string, so written logs re-read
bit-exactly.
"""

import re
from dataclasses import dataclass

import numpy as np

from ..errors import DataError


DEFAULT_NULL = -999.25

# "MNEM.UNIT   VALUE : DESCRIPTION" — unit runs to the first whitespace,
# value to the last colon on the line.
_LINE_RE = re.compile(r"^\s*([^.\s:]+)\s*\.(\S*)\s(.*)$")


@dataclass
class LasCurve:
    mnemonic: str
    unit: str = ""
    description: str = ""


@dataclass
class LasLog:
    well_meta: dict                 # mnemonic -> (value str, unit str)
    curves: list                    # of LasCurve, in column order
    null_value: float
    rows: np.ndarray                # [n_rows, n_curves] float64, NaN = missing

    @property
    def curve_names(self):
        return [c.mnemonic for c in self.curves]

    @property
    def depths(self) -> np.ndarray:
        return self.rows[:, 0]

    def curve(self, mnemonic: str) -> np.ndarray:
        names = self.curve_names
        if mnemonic not in names:
            raise DataError(f"no curve {mnemonic!r}; have {names}")
        return self.rows[:, names.index(mnemonic)]


def _split_sections(text: str) -> dict:
    sections = {}
    current = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("~"):
            current = stripped[1].upper() if len(stripped) > 1 else ""
            sections.setdefault(current, [])
            continue
        if current is not None:
            sections[current].append(line)
    return sections


def _parse_info_line(line: str):
    m = _LINE_RE.match(line)
    if m is None:
        return None
    mnemonic, unit, rest = m.group(1), m.group(2), m.group(3)
    if ":" in rest:
        value, desc = rest.rsplit(":", 1)
    else:
        value, desc = rest, ""
    return mnemonic.strip(), unit.strip(), value.strip(), desc.strip()


def _parse_data(lines: list, n_curves: int) -> np.ndarray:
    """The ~A rows as an [n_rows, n_curves] float64 table."""
    if lines:       # loadtxt warns on empty input
        try:
            table = np.loadtxt(lines, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape == (len(lines), n_curves):
                return table
    rows = []
    for line in lines:
        cells = line.split()
        if len(cells) != n_curves:
            raise DataError(
                f"row has {len(cells)} values, expected {n_curves}: {line.strip()!r}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise DataError(f"non-numeric cell in ~A row: {line.strip()!r}")
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_curves)


def parse_las(text: str) -> LasLog:
    sections = _split_sections(text)
    for required in ("V", "C", "A"):
        if required not in sections:
            raise DataError(f"LAS input has no ~{required} section")

    version = None
    wrap = "NO"
    for line in sections["V"]:
        parsed = _parse_info_line(line)
        if parsed and parsed[0].upper() == "VERS":
            version = parsed[2]
        if parsed and parsed[0].upper() == "WRAP":
            wrap = parsed[2].upper()
    if version is None or not version.startswith("2.0"):
        raise DataError(f"need LAS 2.0, got VERS={version!r}")
    if wrap not in ("NO", ""):
        raise DataError("wrapped (~V WRAP=YES) files are not supported")

    well_meta = {}
    null_value = DEFAULT_NULL
    for line in sections.get("W", []):
        parsed = _parse_info_line(line)
        if parsed is None:
            continue
        mnemonic, unit, value, _ = parsed
        well_meta[mnemonic.upper()] = (value, unit)
        if mnemonic.upper() == "NULL":
            try:
                null_value = float(value)
            except ValueError:
                raise DataError(f"unparseable NULL value {value!r}")

    curves = []
    for line in sections["C"]:
        parsed = _parse_info_line(line)
        if parsed is None:
            raise DataError(f"unparseable ~C line: {line!r}")
        curves.append(LasCurve(mnemonic=parsed[0], unit=parsed[1], description=parsed[3]))
    if not curves:
        raise DataError("~C section defines no curves")

    table = _parse_data(sections["A"], len(curves))
    table[table == null_value] = np.nan

    depths = table[:, 0]
    if np.isnan(depths).any():
        raise DataError("NULL sentinel in the depth column")
    steps = np.diff(depths)
    if len(depths) > 1 and not ((steps > 0).all() or (steps < 0).all()):
        raise DataError("depth column is not strictly monotone")

    return LasLog(well_meta=well_meta, curves=curves, null_value=null_value,
                  rows=table)


def write_las(log: LasLog) -> str:
    """Render a LasLog back to LAS 2.0 text (unwrapped, full precision)."""
    lines = [
        "~Version",
        " VERS.                  2.0 : CWLS log ASCII standard",
        " WRAP.                  NO  : one line per depth step",
        "~Well",
    ]
    meta = dict(log.well_meta)
    meta.setdefault("NULL", (f"{log.null_value:.17g}", ""))
    for key, (value, unit) in meta.items():
        lines.append(f" {key}.{unit:<8}{value} : ")
    lines.append("~Curve")
    for c in log.curves:
        lines.append(f" {c.mnemonic}.{c.unit:<8}: {c.description}")
    lines.append("~ASCII")
    out = np.where(np.isnan(log.rows), log.null_value, log.rows)
    row = " ".join(["%.17g"] * out.shape[1]) + "\n"
    return "\n".join(lines) + "\n" + row * len(out) % tuple(out.ravel().tolist())
