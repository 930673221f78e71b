"""The paper's evaluation claims (`claims.py`) and their runner (`run.py`)."""
