"""Minimal neural-network library on top of :mod:`repro.tensor`.

Provides modules/parameters, layers (dense, graph convolution, graph
attention, dropout), the Glorot initializer, the Adam optimizer, the
cosine γ schedule from the paper (Eq. 14), and validation early stopping.
"""

from repro.nn.init import glorot_uniform, zeros
from repro.nn.layers import Dropout, GraphAttention, GraphConvolution, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.optim import Adam
from repro.nn.schedules import EarlyStopping, cosine_annealing_gamma

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "GraphConvolution",
    "GraphAttention",
    "Dropout",
    "Adam",
    "EarlyStopping",
    "cosine_annealing_gamma",
    "glorot_uniform",
    "zeros",
]
