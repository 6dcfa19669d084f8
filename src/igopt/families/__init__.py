from .base import (
    CapabilityError,
    DegenerateUpdate,
    DomainError,
    Family,
    SingularFisher,
)
from .bernoulli import BernoulliFamily, LogitBernoulliFamily
from .gaussian import (
    FullGaussianFamily,
    GaussianExpectationFamily,
    GaussianParams,
    GaussianSqrtParams,
    IsotropicGaussianFamily,
    MeanGaussianFamily,
    from_second_moment,
    gaussian_step,
    to_second_moment,
)
from .rbm import (
    JointRbmFamily,
    MarginalRbmFamily,
    RbmParams,
    centered_to_standard,
    flip_hidden_params,
    flip_hidden_samples,
    rbm_init,
    standard_to_centered,
)

__all__ = [
    "Family", "CapabilityError", "DomainError", "DegenerateUpdate", "SingularFisher",
    "BernoulliFamily", "LogitBernoulliFamily",
    "FullGaussianFamily", "GaussianExpectationFamily", "GaussianParams",
    "GaussianSqrtParams", "IsotropicGaussianFamily", "MeanGaussianFamily",
    "gaussian_step", "to_second_moment", "from_second_moment",
    "JointRbmFamily", "MarginalRbmFamily", "RbmParams", "rbm_init",
    "flip_hidden_params", "flip_hidden_samples",
    "standard_to_centered", "centered_to_standard",
]
