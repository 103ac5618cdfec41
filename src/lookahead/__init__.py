"""Test-time tree search that nudges a step-wise action policy.

A frozen base policy proposes actions; a shallow tree search over a world
model, expanded from a kernel density prior fit on demonstrations and scored
by a learned progress reward, proposes a correction; the executed action is
the alpha-blend of the two. The package ships a deterministic synthetic
tabletop world plus a paired-seed benchmark harness around that loop.
"""

from .actions import (
    ACTION_DIM,
    Action,
    ActionChunk,
    DELTA_BOUND,
    MAX_CHUNK_LEN,
    action_bounds,
    blend_actions,
    flatten_chunk,
    unflatten_chunk,
)
from .bench import (
    ArmResult,
    BenchReport,
    RunConfig,
    ablate_reward,
    ablate_sampling,
    demo_prior,
    demo_reward_data,
    demo_reward_model,
    episode_seeds,
    generate_demos,
    load_demos,
    run_benchmark,
    run_episode,
    sweep_alpha,
    sweep_model_error,
)
from .errors import DataError
from .kde import (
    KdePrior,
    density,
    fit_kde,
    load_prior,
    sample,
    save_prior,
    top_k_near,
    weights_from_densities,
)
from .policies import DriftPolicy, PolicyParams, expert_action
from .records import EpisodeResult, Trajectory, action_matrix, read_trajectories, write_trajectories
from .reward import (
    FrameBankScorer,
    LabeledFrame,
    RewardModel,
    downsample,
    fit_reward,
    label_progress,
    load_model,
    predict_reward,
    save_model,
)
from .search import (
    SearchConfig,
    SearchTrace,
    SearchTree,
    act,
    backpropagate,
    expand,
    run_search,
    select_ucb,
    simulate,
)
from .seeding import derive_seed, rng_from
from .world import (
    FollowCircle,
    GRASP_RADIUS,
    Observation,
    ObjectState,
    PickPlace,
    Stack,
    TaskSpec,
    feature_length,
    imperfect_step,
    is_success,
    render_features,
    reset,
    step,
    waypoint_positions,
)

__version__ = "0.1.0"
