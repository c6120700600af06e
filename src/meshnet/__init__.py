"""Gauge-equivariant message passing and attention on triangle meshes."""

__version__ = "0.1.0"

from .mesh import (
    Mesh,
    face_geometry,
    generate_grid_patch,
    generate_icosphere,
    load_mesh,
    save_mesh,
    vertex_normals,
)
from .tangent import (
    EdgeGeometry,
    FrameField,
    build_frames,
    regauge,
)
from .representations import FeatureType
from .features import (
    GeometricFeatureField,
    compute_features,
    get_features,
    reltan_features,
    xyz_features,
)
from .autodiff import Adam, Tensor, nll_loss, parameter
from .layers import EmanAttentionLayer, GaugeNonlinearity, GemConvLayer
from .model import Model, ModelSpec, build_model
from .transforms import (
    AmbientTransform,
    Permutation,
    apply_ambient,
    apply_permutation,
    random_transform_suite,
)
from .config import RunConfig, config_hash, default_config, load_config, parse_config
from .harness import equivariance_gap, evaluate, train
