"""repro: a full reproduction of Dynamic Bank Partitioning (HPCA 2014).

The package implements, from scratch, every system the paper needs — a
DDR3 memory-system simulator (device timing model, multi-channel controller,
five request schedulers), an OS page-coloring layer, private caches, an
event-driven core model, synthetic SPEC-like workloads — plus the paper's
contribution: Dynamic Bank Partitioning and its DBP-TCM combination, with
equal bank partitioning and memory channel partitioning as baselines.

Quickstart::

    from repro import Runner, get_mix

    runner = Runner(horizon=200_000)
    for approach in ("shared-frfcfs", "ebp", "dbp"):
        result = runner.run_mix(get_mix("M1"), approach)
        print(approach, result.metrics.summary)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reconstructed table and figure.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": (
            "CacheConfig",
            "ControllerConfig",
            "CoreConfig",
            "DRAMOrganization",
            "OSConfig",
            "SystemConfig",
        ),
        ".core": (
            "APPROACHES",
            "Approach",
            "BankDemandEstimator",
            "DBPConfig",
            "DemandConfig",
            "DynamicBankPartitioning",
            "ThreadProfiler",
            "get_approach",
        ),
        ".baselines": (
            "EqualBankPartitioning",
            "MCPConfig",
            "MemoryChannelPartitioning",
            "PartitionPolicy",
            "SharedPolicy",
        ),
        ".errors": (
            "AllocationError",
            "ConfigError",
            "ExperimentError",
            "MappingError",
            "ProtocolError",
            "ReproError",
            "SimulationError",
            "TraceError",
        ),
        ".metrics": (
            "MetricSummary",
            "harmonic_speedup",
            "max_slowdown",
            "slowdowns",
            "summarize",
            "weighted_speedup",
        ),
        ".campaign": (
            "CampaignResult",
            "CampaignSpec",
            "ResultStore",
            "RunOutcome",
            "RunSpec",
            "run_campaign",
        ),
        ".sim": (
            "Engine",
            "RunResult",
            "Runner",
            "System",
            "SystemResult",
            "WorkloadRunMetrics",
        ),
        ".workloads": (
            "APP_PROFILES",
            "AppProfile",
            "MIXES",
            "Mix",
            "generate_trace",
            "get_mix",
            "get_profile",
            "mixes_for_cores",
        ),
    },
)
