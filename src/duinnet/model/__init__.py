from .attention import CrossAttentionBlock, DualFeatureInteractor
from .config import ConfigError, ModelConfig, make_config, mini_config
from .encoders import ImageEncoder, PointEncoder
from .generator import AdaptivePointGenerator, GeneratorBlock
from .network import DuInNet, assemble_outputs, chamfer_l1_t, completion_loss

__all__ = [
    "AdaptivePointGenerator", "ConfigError", "CrossAttentionBlock", "DuInNet",
    "DualFeatureInteractor", "GeneratorBlock", "ImageEncoder", "ModelConfig",
    "PointEncoder", "assemble_outputs", "chamfer_l1_t", "completion_loss",
    "make_config", "mini_config",
]
