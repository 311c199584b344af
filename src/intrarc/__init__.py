"""Two-pass all-intra rate control toolkit.

Pipeline: raw video -> per-frame DCT-energy complexity features ->
random-forest bits prediction (the cheap stand-in for a first encoding
pass) -> second-pass QP assignment with bit-budget compensation.
A synthetic encoder model and BD-rate close the loop for
desk-scale validation.
"""

__version__ = "0.1.0"

from intrarc.video_io import VideoGeometry, PlanarFrame, open_y4m, open_raw_yuv
from intrarc.features import AnalyzerConfig, FrameFeatures, extract_features, extract_sequence
from intrarc.forest import ForestHyperparams, ForestModel, TrainingSample, train, predict
from intrarc.ratecontrol import RcConfig, FirstPassRecord, FrameDecision
from intrarc.simulator import SimParams, sim_bits, sim_psnr, generate_dataset
from intrarc.metrics import RdPoint, RdCurve, bd_rate

__all__ = [
    "VideoGeometry", "PlanarFrame", "open_y4m", "open_raw_yuv",
    "AnalyzerConfig", "FrameFeatures", "extract_features", "extract_sequence",
    "ForestHyperparams", "ForestModel", "TrainingSample", "train", "predict",
    "RcConfig", "FirstPassRecord", "FrameDecision",
    "SimParams", "sim_bits", "sim_psnr", "generate_dataset",
    "RdPoint", "RdCurve", "bd_rate",
]
