"""Session-scoped rigs shared between the module tests and the acceptance suite.

Building simulated datasets and training classifiers is the expensive part
of the suite, so one digit rig (9 grid sessions, 2 code sessions, the four
growing training sets and their trained models) is built once and reused.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads: the bit-equality tests compare
# products whose last bits depend on how OpenBLAS splits them over threads.
# A value set in the environment wins.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from emgleam.classifier import CnnSpec, TrainConfig, TrainResult, init_model, train
from emgleam.dataset import (
    Session,
    TrainingSet,
    build_training_sets,
    load_items,
    run_code_session,
    run_session,
)
from emgleam.profiles import get_profile
from emgleam.util import derive_seed

RIG_SNR_DB = 25.0
RIG_EPOCHS = 15
N_TEST_CODES = 25


@dataclass
class DigitRig:
    root: Path
    profile: object
    grid_sessions: list[Session]
    code_sessions: list[Session]
    training_sets: list[TrainingSet]
    results: dict[str, TrainResult]
    train_seconds: dict[str, float] = field(default_factory=dict)

    def training_set(self, name: str) -> TrainingSet:
        return next(ts for ts in self.training_sets if ts.name == name)


@pytest.fixture(scope="session")
def digit_rig(tmp_path_factory) -> DigitRig:
    root = tmp_path_factory.mktemp("digit-rig")
    profile = get_profile("iphone6s")

    grid_sessions = [
        run_session(
            profile, root, session_id=f"s{i}", rows=40, cols=40, screens=1,
            seed=derive_seed(1000, "grid", i), target_snr_db=RIG_SNR_DB,
        )
        for i in range(9)
    ]
    code_sessions = [
        run_code_session(
            profile, root, session_id=f"codes{j}", n_codes=N_TEST_CODES,
            seed=derive_seed(2000, "code", j), frames=2, target_snr_db=RIG_SNR_DB,
        )
        for j in range(2)
    ]
    training_sets = build_training_sets(grid_sessions, schedule=(1, 3, 5, 7), n_test=2, seed=7)

    results: dict[str, TrainResult] = {}
    train_seconds: dict[str, float] = {}
    for ts in training_sets:
        x_tr, y_tr, _ = load_items(root, ts.train)
        x_val, y_val, _ = load_items(root, ts.val)
        model = init_model(CnnSpec((31, 21), 10), seed=derive_seed(3000, ts.name))
        started = time.time()
        results[ts.name] = train(
            model, (x_tr, y_tr), (x_val, y_val),
            TrainConfig(epochs=RIG_EPOCHS, seed=derive_seed(4000, ts.name)),
        )
        train_seconds[ts.name] = time.time() - started

    return DigitRig(
        root=root,
        profile=profile,
        grid_sessions=grid_sessions,
        code_sessions=code_sessions,
        training_sets=training_sets,
        results=results,
        train_seconds=train_seconds,
    )
