"""Rectangular-barrier tunneling phase times.

Exact scattering amplitudes and phases as functions of scalar or array
wavenumber, stationary-phase transit and scattering times with their
dimensionless rates, the modulated momentum spectrum and the location of
its maximum, distortion/filter diagnostics, and direct spectral synthesis
of time-dependent packets.
Units: hbar = 1; public interfaces work in the dimensionless groups
w*a, k0*a, L/a with m = a = 1.
"""

from .barrier import (BarrierConfig, InteriorCoefficients, collision_phase,
                      interior_field, interior_matching,
                      transfer_matrix_amplitudes, transmission_modulus,
                      transmission_phase)
from .packets import (CollisionTimingReport, ConvergenceError, PacketField,
                      QuadratureSpec, TransmissionTimingReport,
                      collision_sync_time, collision_timing_report,
                      cutoff_packet_profile, ensure_converged,
                      synthesize_collision, synthesize_incident,
                      synthesize_transmitted, transmission_timing_report)
from .phase_times import (opaque_limit_time, rate_scattering, rate_standard,
                          rate_table, scattering_delay,
                          scattering_time_coshsq_variant,
                          standard_transit_time)
from .spectrum import (ContainmentWarning, DistortionReport, GaussianSpectrum,
                       KmaxResult, TableCell, containment_outside,
                       cutoff_time_estimate, distortion_onset, find_kmax,
                       kmax_table)

__version__ = "0.1.0"

__all__ = [
    "BarrierConfig", "CollisionTimingReport", "ContainmentWarning",
    "ConvergenceError", "DistortionReport", "GaussianSpectrum",
    "InteriorCoefficients", "KmaxResult", "PacketField", "QuadratureSpec",
    "TableCell", "TransmissionTimingReport", "collision_phase",
    "collision_sync_time", "collision_timing_report", "containment_outside",
    "cutoff_packet_profile", "cutoff_time_estimate", "distortion_onset",
    "ensure_converged", "find_kmax", "interior_field", "interior_matching",
    "kmax_table", "opaque_limit_time", "rate_scattering", "rate_standard",
    "rate_table", "scattering_delay", "scattering_time_coshsq_variant",
    "standard_transit_time", "synthesize_collision", "synthesize_incident",
    "synthesize_transmitted", "transfer_matrix_amplitudes",
    "transmission_modulus", "transmission_phase", "transmission_timing_report",
]
