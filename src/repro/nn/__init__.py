"""Minimal neural-network substrate (numpy autograd) used by WSCCL.

This package substitutes for PyTorch in the original artifact.  See
``DESIGN.md`` for the substitution rationale.
"""

from . import functional
from .init import orthogonal, uniform, xavier_normal, xavier_uniform, zeros
from .layers import Dropout, Embedding, LayerNorm, Linear, ReLU, Sigmoid, Tanh
from .module import Module, Parameter, Sequential
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .recurrent import LSTM, LSTMCell
from .tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "no_grad",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "Dropout",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LayerNorm",
    "LSTM",
    "LSTMCell",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "functional",
    "xavier_uniform",
    "xavier_normal",
    "orthogonal",
    "uniform",
    "zeros",
]
