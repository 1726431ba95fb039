"""The benchmark's workloads: seeded design batches and the call each one times.

A workload routes a fixed *batch* of designs.  Design ``i`` of the batch
for benchmark seed ``s`` is ``generate_design(spec, scale,
seed=s * SUBSEED_STRIDE + i)``, so one seed always yields the same
batch, and the router only ever sees the generated ``Design``.  A batch
of several moderate designs, rather than one large design, keeps the
per-seed spread of the timing and quality totals small enough to
compare runs made on different seeds.

Importing this module imports the routing package, which is part of the
set-up cost ``setup_s`` measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Optional

from repro.api import RouterConfig
from repro.api import route as route_flow
from repro.benchmarks_gen import (
    FARADAY_SPECS,
    MCNC_SPECS,
    SyntheticSpec,
    generate_design,
    mcnc_stress_design,
)
from repro.globalroute import GlobalRouter
from repro.layout import Design
from repro.observe import Tracer

#: Seeds of one batch are ``seed * SUBSEED_STRIDE + index``.
SUBSEED_STRIDE = 1000

_S13207 = MCNC_SPECS["S13207"]

#: The Table IV stress variant of S13207.  The fields are copied from
#: ``repro.benchmarks_gen.mcnc_stress_design``, which takes no seed;
#: ``test_stagebench.py`` checks the copy against it.
STRESS_S13207 = dataclasses.replace(
    _S13207,
    locality=_S13207.locality + 0.03,
    cluster_fraction=0.25,
    num_clusters=14,
    cluster_sigma_frac=0.2,
)

#: Per-layer quality columns every workload reports (0 where a column
#: does not exist for the workload's stage).
QUALITY_COLUMNS = (
    "via_violations",
    "vertical_violations",
    "short_polygons",
    "vias",
    "global_wirelength",
    "vertex_overflow",
    "edge_overflow",
)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Quality of one routing call, compared exactly across repetitions."""

    nets: int
    routed: int
    wirelength: int
    columns: tuple[tuple[str, int], ...]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name on the command line.
        spec: published statistics the designs are generated from.
        scale: generator scale of each design.
        designs: designs per batch.
        full_flow: ``True`` routes with ``repro.api.route``; ``False``
            runs ``GlobalRouter.route`` alone.
        workers: flow workers (process executor when above 1).
        warmup_scale: scale of the untimed warm-up design (default
            ``scale``).
    """

    name: str
    spec: SyntheticSpec
    scale: float
    designs: int
    full_flow: bool
    workers: int = 1
    warmup_scale: Optional[float] = None

    def make_designs(self, seed: int) -> list[Design]:
        """The batch for ``seed``."""
        return [
            generate_design(
                self.spec, scale=self.scale, seed=seed * SUBSEED_STRIDE + index
            )
            for index in range(self.designs)
        ]

    def make_warmup(self, seed: int) -> Design:
        """The untimed warm-up design for ``seed``: the next one after the batch."""
        return generate_design(
            self.spec,
            scale=self.warmup_scale or self.scale,
            seed=seed * SUBSEED_STRIDE + self.designs,
        )

    def route(
        self, design: Design, profile: str = "off", tracer: Optional[Tracer] = None
    ) -> Any:
        """Route one design the way this workload times it."""
        if not self.full_flow:
            router = GlobalRouter(stitch_aware=True, engine="array", profile=profile)
            return router.route(design, tracer=tracer)
        if self.workers > 1:
            config = RouterConfig(workers=self.workers, executor="process", profile=profile)
        else:
            config = RouterConfig(profile=profile)
        return route_flow(design, config, tracer=tracer)

    def outcome(self, design: Design, result: Any) -> Outcome:
        """Quality of ``result`` (a ``FlowResult`` or ``GlobalRoutingResult``)."""
        if self.full_flow:
            report = result.report
            glob = result.global_result
            columns = {
                "via_violations": report.via_violations,
                "vertical_violations": report.vertical_violations,
                "short_polygons": report.short_polygons,
                "vias": report.vias,
                "global_wirelength": glob.wirelength,
                "vertex_overflow": glob.total_vertex_overflow,
                "edge_overflow": glob.graph.edge_overflow(),
            }
            return Outcome(
                nets=report.total_nets,
                routed=report.routed_nets,
                wirelength=report.wirelength,
                columns=tuple(columns.items()),
            )
        columns = dict.fromkeys(QUALITY_COLUMNS, 0)
        columns.update(
            global_wirelength=result.wirelength,
            vertex_overflow=result.total_vertex_overflow,
            edge_overflow=result.graph.edge_overflow(),
        )
        nets = len(design.netlist)
        return Outcome(
            nets=nets,
            routed=nets - len(result.failed),
            wirelength=result.wirelength,
            columns=tuple(columns.items()),
        )


#: Batch sizes keep one untraced pass between 15 and 35 s on a 2-vCPU host.
#: Routing time per design is chaotic: mirroring a design or renaming its
#: nets changes its work by up to 2x, so the seed-to-seed spread of a
#: batch comes from how much the work varies between designs.  Six-layer
#: DMA at scale 0.01 varies least among small full-flow designs (about
#: 12% in search expansions, against 38% for S13207 at 0.07), so both
#: detailed workloads route the same DMA batches, serial and pooled.  The
#: stress designs vary by 13% at scale 0.5 but by 2% at the full scale
#: 1.0, so ``global-congested`` routes one full-scale design.
_DMA = FARADAY_SPECS["DMA"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="faraday-serial",
            spec=_DMA,
            scale=0.01,
            designs=14,
            full_flow=True,
        ),
        Workload(
            name="global-congested",
            spec=STRESS_S13207,
            scale=1.0,
            designs=1,
            full_flow=False,
            warmup_scale=0.1,
        ),
        Workload(
            name="faraday-2proc",
            spec=_DMA,
            scale=0.01,
            designs=14,
            full_flow=True,
            workers=2,
        ),
    )
}


def stress_copy_matches(scale: float = 1.0) -> bool:
    """Whether ``STRESS_S13207`` at the default seed reproduces ``mcnc_stress_design``."""
    reference = mcnc_stress_design("S13207", scale=scale)
    copy = generate_design(STRESS_S13207, scale=scale)
    return designs_digest([copy]) == designs_digest([reference])


def designs_digest(designs: list[Design]) -> str:
    """Stable digest of a batch's geometry and netlists."""
    h = hashlib.sha256()
    for design in designs:
        layers = design.technology.num_layers
        h.update(f"{design.name}:{design.width}x{design.height}:{layers}".encode())
        for net in design.netlist:
            pins = ",".join(f"{p.location.x}.{p.location.y}.{p.layer}" for p in net.pins)
            h.update(f"|{net.name}:{pins}".encode())
    return h.hexdigest()
