"""Minimal neural-network library on top of :mod:`repro.tensor`.

Provides modules/parameters, layers (dense, graph convolution, graph
attention, dropout), Glorot initializers, Adam/SGD optimizers, the cosine
γ schedule from the paper (Eq. 14), and validation early stopping.
"""

from repro.nn.init import glorot_normal, glorot_uniform, he_uniform, zeros
from repro.nn.layers import Dropout, GraphAttention, GraphConvolution, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.optim import SGD, Adam, Optimizer
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
    "SGD",
    "Optimizer",
    "EarlyStopping",
    "cosine_annealing_gamma",
    "glorot_uniform",
    "glorot_normal",
    "he_uniform",
    "zeros",
]
