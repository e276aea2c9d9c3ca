"""Desk-scale laboratory for the Fourier growth of noisy quantum query algorithms."""
