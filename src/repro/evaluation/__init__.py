"""The offline refit of the interference factors (§5.2.2).

Nothing is re-exported here: :mod:`repro.evaluation.runner` holds the
fit, and only ``scripts/refresh_calibration.py`` and the tests import
it. The tuner reads the checked-in result through
:func:`repro.costmodel.calibrated_interference`.
"""
