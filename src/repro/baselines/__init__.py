"""Baseline methods compared against WSCCL (paper §VII-A3).

Shared scaffolding exists once:

* :func:`~repro.datasets.temporal_paths.minibatches` is the epoch/minibatch
  loop of every trained baseline (MB, BERT, InfoGraph, PIM, the supervised
  sequence models, GCN/STGCN) and of the WSCCL trainer;
* :class:`~repro.baselines.supervised_base.SupervisedSequenceModel` is the
  supervised trainer (loop, Adam, gradient clip, chunked ``predict``) that
  DeepGTT, HMTRL and PathRank specialise;
* :class:`SpatialSequenceEncoder` is the spatial-only LSTM encoder of MB,
  BERT, InfoGraph and PIM;
* the no-grad chunked encode and the masked mean come from
  :mod:`repro.core.encoder` (``batched_no_grad``, ``masked_mean``).
"""

from .base import RepresentationModel, SupervisedModel
from .bert_path import BERTPathModel
from .deepgtt import DeepGTTModel
from .gcn import GCNTravelTimeModel, STGCNTravelTimeModel
from .graph_embedding import DGIPathModel, GMIPathModel, Node2vecPathModel
from .hmtrl import HMTRLModel
from .infograph import InfoGraphModel
from .memory_bank import MemoryBankModel
from .pathrank import PathRankModel
from .pim import PIMModel, PIMTemporalModel
from .sequence_encoder import SpatialSequenceEncoder

__all__ = [
    "RepresentationModel",
    "SupervisedModel",
    "SpatialSequenceEncoder",
    "Node2vecPathModel",
    "DGIPathModel",
    "GMIPathModel",
    "MemoryBankModel",
    "BERTPathModel",
    "InfoGraphModel",
    "PIMModel",
    "PIMTemporalModel",
    "DeepGTTModel",
    "HMTRLModel",
    "PathRankModel",
    "GCNTravelTimeModel",
    "STGCNTravelTimeModel",
]
