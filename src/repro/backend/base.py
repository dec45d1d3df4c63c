"""Backend abstraction over the measured-hottest kernels.

A :class:`KernelBackend` names one implementation of the serving hot
kernels (the ones ``cli bench`` measures): field query
(``trilinear_gather`` + ``accumulate_gather``), warp gather/scatter,
disocclusion classification, and volume compositing.  The base class
delegates every kernel to the canonical numpy implementation, so a
subclass overrides only the kernels it accelerates and
:meth:`overrides` reports exactly that set to the dispatch table.

Parity contract (enforced by ``tests/backend/``): every backend
(``numpy``, ``parallel``) is **bit-identical** to the reference kernels
in :mod:`repro.perf.reference` — goldens and engine results never
change under them.
"""

from __future__ import annotations

__all__ = ["KERNELS", "KernelBackend"]

# The backend-pluggable kernel surface, in bench-registry naming.
KERNELS = (
    "field.trilinear_gather",
    "field.accumulate_gather",
    "warp.gather",
    "warp.scatter",
    "disocclusion.classify",
    "volume.composite",
)


class KernelBackend:
    """One named implementation of the hot-kernel surface.

    Attributes
    ----------
    name:
        Registry key (``--backend`` value).
    description:
        One-line summary for registry listings.
    """

    name = "base"
    description = "canonical numpy kernels"

    # -- kernel surface (canonical numpy delegates) ----------------------------

    def trilinear_gather(self, coords01, resolution, assume_clipped=False):
        """Corner-major trilinear setup (see ``repro.nerf.fields.interp``)."""
        from ..nerf.fields.interp import trilinear_gather_numpy
        return trilinear_gather_numpy(coords01, resolution, assume_clipped)

    def accumulate_gather(self, table, base_ids, corner_offsets,
                          weight_factors):
        """Weighted corner-feature accumulation (field query core)."""
        from ..nerf.fields.interp import accumulate_gather_numpy
        return accumulate_gather_numpy(table, base_ids, corner_offsets,
                                       weight_factors)

    def warp_gather(self, depth, intrinsics):
        """Per-pixel depth lift into camera-space points (SPARW step 1)."""
        from ..geometry.pointcloud import depth_to_points_numpy
        return depth_to_points_numpy(depth, intrinsics)

    def warp_scatter(self, flat_ids, z, src, colors, image, depth,
                     source_index):
        """Z-buffer resolve of projected points (SPARW step 3 core)."""
        from ..geometry.projection import scatter_resolve_numpy
        return scatter_resolve_numpy(flat_ids, z, src, colors, image,
                                     depth, source_index)

    def classify(self, covered, hole, angle, threshold):
        """Warped/disoccluded mask partition of a naive warp."""
        from ..core.sparw.disocclusion import classify_masks_numpy
        return classify_masks_numpy(covered, hole, angle, threshold)

    def composite(self, sigmas, rgbs, t_values, deltas, ray_index,
                  num_rays):
        """Segmented alpha compositing of flattened ray samples."""
        from ..nerf.volume_render import composite_numpy
        return composite_numpy(sigmas, rgbs, t_values, deltas, ray_index,
                               num_rays)

    # -- dispatch ---------------------------------------------------------------

    def overrides(self) -> dict:
        """Kernel-name -> callable table for the dispatch layer.

        The base (and any backend whose kernels *are* the built-ins)
        returns an empty table: the hot paths then run their canonical
        numpy code with zero indirection.
        """
        return {}

    def kernel(self, name: str):
        """The method implementing a :data:`KERNELS` entry, by name."""
        attr = {
            "field.trilinear_gather": self.trilinear_gather,
            "field.accumulate_gather": self.accumulate_gather,
            "warp.gather": self.warp_gather,
            "warp.scatter": self.warp_scatter,
            "disocclusion.classify": self.classify,
            "volume.composite": self.composite,
        }.get(name)
        if attr is None:
            raise KeyError(f"unknown kernel {name!r}; one of {KERNELS}")
        return attr

    def describe(self) -> dict:
        """One registry-listing row."""
        return {
            "backend": self.name,
            "overrides": sorted(self.overrides()),
            "description": self.description,
        }
