package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestNoHealthyDevicesMatchesThroughWrap pins that ErrNoHealthyDevices
// survives the fmt.Errorf("%w") layers SelectGPUFleet adds
// before the sentinel reaches the serve handler that maps it to 503.
// The handler matches with errors.Is; this test is the regression fence
// keeping a == comparison from ever looking correct there.
func TestNoHealthyDevicesMatchesThroughWrap(t *testing.T) {
	wrapped := fmt.Errorf("core: fleet of 4: %w", ErrNoHealthyDevices)
	if !errors.Is(wrapped, ErrNoHealthyDevices) {
		t.Fatalf("errors.Is failed through one fmt.Errorf wrap layer")
	}
	if wrapped == ErrNoHealthyDevices { //nolint - demonstrating the broken comparison
		t.Fatalf("wrapped error compared equal with ==; wrapping is broken")
	}
	if errors.Is(errors.New(ErrNoHealthyDevices.Error()), ErrNoHealthyDevices) {
		t.Fatalf("errors.Is matched a same-text impostor; identity must not be textual")
	}
}
