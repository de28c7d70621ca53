"""Small shared helpers: seed derivation, deterministic JSON and record reading."""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

from .errors import ValidationError


def derive_seed(base_seed: int, *labels) -> int:
    """Derive a child seed from a base seed and a sequence of stage labels.

    All randomness in the toolkit fans out from one user seed through this
    function, so any stage can be re-run in isolation.  The derivation is
    sha256 over the decimal seed and the labels, keeping the result stable
    across platforms and releases.
    """
    text = str(int(base_seed)) + "".join("/" + str(lab) for lab in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def dump_json(path, obj) -> None:
    """Write JSON with a fixed layout so equal inputs give equal bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    """Parse a UTF-8 JSON file; a file that is not one is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"{path}: not a JSON file ({exc})") from None


@contextmanager
def read_record(path, block: bytes | None = None):
    """The JSON at path, or the JSON block read from it, for building a record.

    A missing key, or a mistyped or unparsable value, met while reading it
    is a ValidationError naming the file; a ValidationError that the
    record's own constructor raises passes through unchanged.
    """
    try:
        yield load_json(path) if block is None else json.loads(block)
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed record ({exc})") from None
