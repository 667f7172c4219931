"""Environment packaging and unpacking (the conda-pack analog).

An :class:`~repro.discover.environment.EnvironmentSpec` is packed into a
gzipped tarball with a manifest; a worker unpacks it once into its cache
and every library that names the same package hash reuses the unpacked
directory.  This reproduces the paper's dominant L2 worker overhead:
"The majority of the worker overhead comes from unpacking the tarball of
software dependencies into a directory to be reused by invocations."

Tar members are added in sorted order with zeroed timestamps so the same
spec always produces byte-identical (hence hash-identical) packages.
"""

from __future__ import annotations

import io
import json
import os
import tarfile
from typing import Dict

from repro.discover.environment import EnvironmentSpec
from repro.errors import PackagingError
from repro.util.hashing import hash_file

_MANIFEST = "repro-environment.json"


def pack_environment(spec: EnvironmentSpec, dest_path: str) -> str:
    """Pack ``spec`` into a tar.gz at ``dest_path``; return the file hash."""
    manifest = {
        "format": 1,
        "modules": [m.relative_path for m in spec.modules],
        "assumed_present": list(spec.assumed_present),
        "env_hash": spec.hash,
    }
    tmp = f"{dest_path}.tmp.{os.getpid()}"
    try:
        # gzip normally stamps the current time into its header; zero it
        # (and omit the filename) so identical specs produce byte-identical
        # packages — content-addressed caching depends on this.
        import gzip

        raw = open(tmp, "wb")
        gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, compresslevel=1, mtime=0)
        with tarfile.open(fileobj=gz, mode="w") as tar:
            blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
            info = tarfile.TarInfo(_MANIFEST)
            info.size = len(blob)
            info.mtime = 0
            tar.addfile(info, io.BytesIO(blob))
            for mf in spec.modules:
                try:
                    with open(mf.source_path, "rb") as fh:
                        data = fh.read()
                except OSError as exc:
                    raise PackagingError(
                        f"cannot read module source {mf.source_path}: {exc}"
                    ) from exc
                info = tarfile.TarInfo(mf.relative_path)
                info.size = len(data)
                info.mtime = 0
                tar.addfile(info, io.BytesIO(data))
        gz.close()
        raw.close()
        os.replace(tmp, dest_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return hash_file(dest_path)


def unpack_environment(package_path: str, dest_dir: str) -> Dict[str, object]:
    """Unpack a package into ``dest_dir`` and return its manifest.

    ``dest_dir`` becomes a ``sys.path`` entry on the worker.  Path
    traversal is rejected — packages are content-addressed but may have
    crossed several peer transfers, and a worker must not trust names.
    """
    try:
        tar = tarfile.open(package_path, "r:gz")
    except (OSError, tarfile.TarError) as exc:
        raise PackagingError(f"cannot open environment package: {exc}") from exc
    with tar:
        members = tar.getmembers()
        for member in members:
            name = member.name
            if name.startswith("/") or ".." in name.split("/"):
                raise PackagingError(f"unsafe path in environment package: {name!r}")
        manifest_member = next((m for m in members if m.name == _MANIFEST), None)
        if manifest_member is None:
            raise PackagingError("environment package has no manifest")
        fh = tar.extractfile(manifest_member)
        assert fh is not None
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PackagingError(f"corrupt environment manifest: {exc}") from exc
        os.makedirs(dest_dir, exist_ok=True)
        for member in members:
            if member.name == _MANIFEST or not member.isfile():
                continue
            target = os.path.join(dest_dir, member.name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            src = tar.extractfile(member)
            assert src is not None
            with open(target, "wb") as out:
                out.write(src.read())
    return manifest
