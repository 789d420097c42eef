"""The blessed atomic-publication helpers.

Every durable artifact this repo writes — cache envelopes, spool job files,
benchmark payloads, exported bundles — must become visible to concurrent
readers either whole or not at all.  The one portable way to get that on a
POSIX filesystem is write-to-temp-in-the-same-directory + ``os.replace``:
the rename is atomic within one filesystem, so no reader can ever observe a
torn file, and a crash mid-write leaves only a ``*.tmp`` orphan that the
next writer ignores.

This module is the single implementation of that pattern.  The
``atomic-write`` lint rule (``repro.devtools.checkers.atomicity``) flags any
truncating write in spool/cache/ledger/benchmark code that bypasses these
helpers, so new durability bugs fail CI instead of surfacing as corrupt
artifacts under a crashed fleet worker.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Union


@contextlib.contextmanager
def atomic_output(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a same-directory temp path, published to ``path`` on success.

    For writers that need a real filesystem path (``tarfile``, ``sqlite``,
    external tools) rather than bytes in hand.  On a clean exit the temp file
    is atomically renamed over ``path``; on an exception it is deleted and
    the target is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(descriptor)
    temp_path = Path(name)
    try:
        yield temp_path
        os.replace(temp_path, target)
    except BaseException:
        temp_path.unlink(missing_ok=True)
        raise


def write_atomic_bytes(path: Union[str, Path], data: bytes) -> None:
    """Publish ``data`` at ``path`` via write-to-temp + atomic rename.

    The temp file is created in ``path``'s own directory so the final
    ``os.replace`` never crosses a filesystem boundary (cross-device renames
    are copy + delete, which is not atomic).  Any exception, including
    ``KeyboardInterrupt``, removes the temp file and leaves ``path`` as it was.
    """
    with atomic_output(path) as temp_path:
        temp_path.write_bytes(data)


def write_atomic_text(path: Union[str, Path], text: str) -> None:
    """Publish ``text`` (UTF-8) at ``path`` via write-to-temp + atomic rename."""
    write_atomic_bytes(path, text.encode("utf-8"))


def write_atomic_json(
    path: Union[str, Path], payload: Any, *, indent: Union[int, None] = None
) -> None:
    """Serialize ``payload`` as JSON and publish it atomically at ``path``.

    ``indent`` mirrors :func:`json.dumps`; indented payloads get a trailing
    newline so the published file is diff- and ``cat``-friendly.
    """
    text = json.dumps(payload, indent=indent)
    if indent is not None:
        text += "\n"
    write_atomic_text(path, text)
