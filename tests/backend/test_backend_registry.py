"""Backend registry behavior: names, resolution, dispatch install."""

import pytest

from repro.backend import (
    DEFAULT_BACKEND,
    KERNELS,
    active_overrides,
    backend_names,
    get_backend,
    kernel_defaults,
    resolve_backend,
    use_backend,
)


class TestRegistry:
    def test_names(self):
        assert backend_names() == ("numpy", "parallel")

    def test_default_is_numpy(self):
        assert DEFAULT_BACKEND == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError) as err:
            get_backend("cuda")
        message = err.value.args[0]
        assert "cuda" in message
        for name in backend_names():
            assert name in message

    def test_exact_backends_install_nothing(self):
        # numpy and parallel run the canonical in-process kernels with
        # zero dispatch indirection; parallelism lives in the engine's
        # pool, not in kernel overrides.
        for name in ("numpy", "parallel"):
            assert get_backend(name).overrides() == {}

    def test_use_backend_installs_and_restores(self):
        assert active_overrides() == {}
        with use_backend("numpy") as active:
            assert active.name == "numpy"
            assert active_overrides() == {}
        with use_backend("parallel") as active:
            assert active.name == "parallel"
            assert set(active_overrides()) == set(active.overrides())
        assert active_overrides() == {}

    def test_kernel_defaults_cover_surface(self):
        defaults = kernel_defaults()
        assert set(defaults) == set(KERNELS)
        assert all(callable(fn) for fn in defaults.values())

    def test_unknown_kernel_name(self):
        with pytest.raises(KeyError) as err:
            get_backend("numpy").kernel("field.nope")
        assert "field.nope" in err.value.args[0]

    def test_describe_rows(self):
        for name in backend_names():
            row = get_backend(name).describe()
            assert row["backend"] == name
            assert row["description"]
