"""Unit tests for environment resolution and packaging."""

import sys
import tarfile

import pytest

from repro.discover.environment import EnvironmentSpec, ModuleFile, resolve_environment
from repro.discover.packaging import pack_environment, unpack_environment
from repro.errors import DiscoveryError, PackagingError


@pytest.fixture
def fake_package(tmp_path):
    """A pure-Python package importable from tmp_path."""
    root = tmp_path / "fakelib"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("from fakelib.core import value\n")
    (root / "core.py").write_text("value = 123\n")
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "deep.py").write_text("def f():\n    return 'deep'\n")
    sys.path.insert(0, str(tmp_path))
    yield "fakelib"
    sys.path.remove(str(tmp_path))
    for name in list(sys.modules):
        if name.startswith("fakelib"):
            del sys.modules[name]


def test_resolve_package_collects_all_sources(fake_package):
    spec = resolve_environment([fake_package])
    paths = {m.relative_path for m in spec.modules}
    assert paths == {
        "fakelib/__init__.py",
        "fakelib/core.py",
        "fakelib/sub/__init__.py",
        "fakelib/sub/deep.py",
    }


def test_resolve_extension_module_assumed_present():
    spec = resolve_environment(["numpy"])
    # numpy's package root is pure-python but we only assert it resolves
    # without error; math (builtin) must be assumed-present.
    spec2 = resolve_environment(["math"])
    assert "math" in spec2.assumed_present


def test_resolve_unknown_module_raises():
    with pytest.raises(DiscoveryError):
        resolve_environment(["definitely_not_a_module_xyz"])


def test_environment_hash_stable_and_sensitive(fake_package):
    a = resolve_environment([fake_package])
    b = resolve_environment([fake_package])
    assert a.hash == b.hash
    c = EnvironmentSpec(modules=list(a.modules[:-1]))
    assert c.hash != a.hash


def test_pack_unpack_roundtrip(fake_package, tmp_path):
    spec = resolve_environment([fake_package])
    pkg = tmp_path / "env.tar.gz"
    digest = pack_environment(spec, str(pkg))
    assert len(digest) == 64
    dest = tmp_path / "unpacked"
    manifest = unpack_environment(str(pkg), str(dest))
    assert manifest["env_hash"] == spec.hash
    assert (dest / "fakelib" / "core.py").read_text() == "value = 123\n"


def test_unpacked_environment_is_importable(fake_package, tmp_path):
    spec = resolve_environment([fake_package])
    pkg = tmp_path / "env.tar.gz"
    pack_environment(spec, str(pkg))
    dest = tmp_path / "unpacked2"
    unpack_environment(str(pkg), str(dest))
    sys.path.insert(0, str(dest))
    try:
        for name in list(sys.modules):
            if name.startswith("fakelib"):
                del sys.modules[name]
        import fakelib

        assert fakelib.value == 123
    finally:
        sys.path.remove(str(dest))


def test_packaging_is_deterministic(fake_package, tmp_path):
    spec = resolve_environment([fake_package])
    d1 = pack_environment(spec, str(tmp_path / "a.tar.gz"))
    d2 = pack_environment(spec, str(tmp_path / "b.tar.gz"))
    assert d1 == d2  # byte-identical: mtimes zeroed, members sorted


def test_unpack_rejects_path_traversal(tmp_path):
    evil = tmp_path / "evil.tar.gz"
    with tarfile.open(evil, "w:gz") as tar:
        info = tarfile.TarInfo("../escape.py")
        data = b"pwned = True\n"
        info.size = len(data)
        import io

        tar.addfile(info, io.BytesIO(data))
    with pytest.raises(PackagingError, match="unsafe|manifest"):
        unpack_environment(str(evil), str(tmp_path / "out"))


def test_unpack_requires_manifest(tmp_path):
    bare = tmp_path / "bare.tar.gz"
    with tarfile.open(bare, "w:gz") as tar:
        import io

        info = tarfile.TarInfo("mod.py")
        info.size = 0
        tar.addfile(info, io.BytesIO(b""))
    with pytest.raises(PackagingError, match="manifest"):
        unpack_environment(str(bare), str(tmp_path / "out"))


def test_unpack_garbage_rejected(tmp_path):
    bad = tmp_path / "bad.tar.gz"
    bad.write_bytes(b"this is not a tarball")
    with pytest.raises(PackagingError):
        unpack_environment(str(bad), str(tmp_path / "out"))


def test_pack_missing_source_raises(tmp_path):
    spec = EnvironmentSpec(
        modules=[ModuleFile("ghost", "ghost.py", str(tmp_path / "ghost.py"))]
    )
    with pytest.raises(PackagingError):
        pack_environment(spec, str(tmp_path / "env.tar.gz"))
