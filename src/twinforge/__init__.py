"""twinforge: digital-twin runtime with a zero-configuration
segmentation/clustering pipeline for industrial telemetry."""

__version__ = "0.1.0"

from .analytics import (
    KMeansModel,
    Segmentation,
    kmeans_fit,
    kmeanspp_init,
    pelt_segment,
    silhouette_score,
)
from .archive import (
    Archive,
    ArchiveEntry,
    SegmentRecord,
    WindowQuery,
)
from .orchestrator import (
    DEFAULT_GRID,
    AnomalyEvent,
    BenchmarkReport,
    HyperParams,
    ReplicaResult,
    Timeline,
    build_timeline,
    emit_augmentation_event,
    flag_anomalies,
    rank_replicas,
    zeroconf_run,
)
from .readiness import (
    detect_outliers,
    fill_gaps,
    rolling_max,
    run_readiness,
    smooth,
    zscore_normalize,
)
from .simulate import (
    GroundTruth,
    MachineTruth,
    PhaseInterval,
    ScenarioSpec,
    default_scenario,
    quiet_failure_scenario,
    simulate_scenario,
)
from .twin import (
    DigitalEvent,
    LifecycleEvent,
    LifecyclePhase,
    TwinInstance,
    TwinRuntime,
    TwinState,
)
from .wire import (
    Channel,
    MachineState,
    Quality,
    TelemetrySample,
    decode_sample,
    encode_sample,
    replay_trace,
    write_trace,
)
