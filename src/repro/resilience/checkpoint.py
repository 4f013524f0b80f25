"""Crash-safe file writes: write-temp, fsync, atomic rename, dir fsync.

The run cache's blobs (:mod:`repro.service.cache`), the event journal's
rotation (:mod:`repro.obs.journal`) and the flight recorder's artifacts
(:mod:`repro.obs.recorder`) are written through these helpers, so a
crash at any instant leaves either the previous file or the complete
new one on disk, never a torn file.  Resuming interrupted work is the
run cache's job: a rerun on the same cache directory pays only for the
runs it does not hold.
"""

import json
import os
import tempfile


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` (no-op where unsupported).

    ``os.replace`` makes the rename itself atomic, but the *directory
    entry* pointing at the new file is only durable once the directory's
    own metadata reaches disk — without this a crash shortly after the
    rename can lose a "committed" cache entry or artifact entirely.
    Platforms that reject directory file descriptors (e.g. Windows) fall
    back to a no-op: the rename atomicity still holds there, only the
    durability-after-crash window is platform-defined.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` via write-to-temp + fsync + atomic rename + dir fsync.

    ``os.replace`` is atomic on POSIX and Windows, so a reader (or a
    resumed process after a crash) only ever observes the previous file
    or the complete new one.  The temp file is uniquely named (safe for
    concurrent writers racing on the same target — last rename wins,
    never a torn file) and lives next to the target so the rename never
    crosses a filesystem boundary.  The containing directory is fsynced
    after the rename so the committed entry survives a crash.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(path)


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON with the :func:`atomic_write_bytes` contract."""
    data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, data.encode())
