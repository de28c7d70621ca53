"""Hardware-free display-cable emanation toolkit.

Simulates the electromagnetic leak of a phone display cable, captures it
as complex baseband the way a software-defined radio would, reconstructs
the screen content as grayscale emages, and recovers on-screen codes and
chart letters with a small trained CNN.
"""

__version__ = "0.1.0"

from .attack import ActivationMap, AttackReport, CodeResult, attack_session, read_code, score, sliding_map
from .classifier import (
    CnnModel,
    CnnSpec,
    GradCheckReport,
    TrainConfig,
    TrainResult,
    grad_check,
    init_model,
    load_model,
    save_model,
    train,
)
from .dataset import (
    HardwareDim,
    Session,
    SessionItem,
    SplitPlan,
    TrainingSet,
    build_training_sets,
    grid_crop,
    load_items,
    load_session,
    run_code_session,
    run_session,
    simulate,
    simulate_seeds,
)
from .emanator import (
    ChannelModel,
    DisplayTiming,
    IqRecording,
    LeakageModel,
    LeakSignal,
    add_noise,
    capture,
    clean_baseband,
    emanate,
    video_waveform,
)
from .errors import (
    DivergenceError,
    EmgleamError,
    NoSyncError,
    StageError,
    ValidationError,
)
from .profiles import PROFILES, PhoneProfile, get_profile
from .raster import (
    CHART_SCALES,
    LabeledRegion,
    ScreenRaster,
    render_digit_grid,
    render_eyechart,
    render_security_message,
)
from .receiver import Emage, ReconParams, am_demod, estimate_frame_rate, measure_snr, reconstruct
from .testbed import (
    AttackerModelSpec,
    TestbedReport,
    generate_stimuli,
    make_panel_profile,
    parse_spec_file,
    run_testbed,
)
from .util import derive_seed
