"""MCS block cipher, differential chosen-plaintext attack, and key recovery."""

from .attack import run_attack
from .cipher import EquivalentKey, decrypt, ees_decrypt, encrypt
from .core import Fixed129, SecretKey, legal_alpha_beta_pairs
from .keyrecovery import RecoveryReport, recover_report
from .prbg import PrbsStream, generate_prbs

__all__ = [
    "EquivalentKey",
    "Fixed129",
    "PrbsStream",
    "RecoveryReport",
    "SecretKey",
    "decrypt",
    "ees_decrypt",
    "encrypt",
    "generate_prbs",
    "legal_alpha_beta_pairs",
    "recover_report",
    "run_attack",
]
