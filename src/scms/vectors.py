"""Golden-vector file handling.

The committed vector file is produced by the standalone oracle script
(scripts/make_vectors.py), which recomputes every value from primitive
AES/SHA/curve operations without importing this package. ``check``
re-derives each line through the library and reports mismatches;
``generate`` re-runs the oracle script.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from .butterfly import CaterpillarRequest, TimeIndex, cocoon_expand, expand_f
from .crypto import Scalar, hash_truncated, mul_g, prf_block, sign
from .linkage import LinkageSeed, evolve_seed, linkage_value, pre_linkage_values


def parse_vector_file(path) -> list[list[str]]:
    entries = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(line.split())
    return entries


def _unhex(field: str) -> bytes:
    return b"" if field == "-" else bytes.fromhex(field)


def _compute(entry: list[str]) -> bytes:
    kind = entry[0]
    if kind == "prf_block":
        return prf_block(_unhex(entry[1]), _unhex(entry[2]))
    if kind == "hash_trunc":
        return hash_truncated(_unhex(entry[1]), int(entry[2]))
    if kind == "expand_f":
        scalar = expand_f(
            bytes.fromhex(entry[1]), entry[2],
            TimeIndex(int(entry[3]), int(entry[4])),
        )
        return scalar.to_bytes()
    if kind == "evolve_seed":
        seed = LinkageSeed(bytes.fromhex(entry[2]), 0)
        return evolve_seed(bytes.fromhex(entry[1]), seed).value
    if kind == "plv":
        j = int(entry[3])
        return pre_linkage_values(
            bytes.fromhex(entry[2]), bytes.fromhex(entry[1]), j + 1
        )[j]
    if kind == "lv":
        return linkage_value(bytes.fromhex(entry[1]), bytes.fromhex(entry[2]))
    if kind == "ecdsa_sign":
        return sign(
            Scalar.from_bytes(bytes.fromhex(entry[1])), bytes.fromhex(entry[2])
        )
    if kind == "cocoon":
        a = Scalar.from_bytes(bytes.fromhex(entry[1]))
        req = CaterpillarRequest(
            signing_seed=mul_g(a),
            signing_key=bytes.fromhex(entry[2]),
            encryption_seed=mul_g(Scalar(2)),
            encryption_key=b"\x00" * 16,
        )
        (cocoon,) = cocoon_expand(
            req, [TimeIndex(int(entry[4]), int(entry[5]))])
        return cocoon.signing.encode()
    raise ValueError(f"unknown vector kind {kind!r}")


def check(path) -> list[tuple[str, bool]]:
    """(vector name, matched) per line; the expected value is the last
    field of each entry."""
    results = []
    for entry in parse_vector_file(path):
        expected = bytes.fromhex(entry[-1])
        got = _compute(entry[:-1])
        results.append((" ".join(entry[:-1]), got == expected))
    return results


def default_vector_path() -> Path:
    return Path("vectors") / "golden.txt"


def default_oracle_path() -> Path:
    return Path("scripts") / "make_vectors.py"


def generate(out_path, oracle_path=None) -> None:
    """Regenerate the vector file by running the committed oracle script."""
    script = Path(oracle_path) if oracle_path else default_oracle_path()
    if not script.exists():
        raise FileNotFoundError(
            f"oracle script not found at {script}; pass --script"
        )
    subprocess.run(
        [sys.executable, str(script), "--out", str(out_path)], check=True
    )
