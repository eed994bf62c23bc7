package core

import (
	"errors"
	"fmt"

	"soteria/internal/disasm"
	"soteria/internal/isa"
)

// ErrBadBinary is wrapped by the error of a submission whose bytes do
// not decode as a SOTB container or whose entry point does not
// disassemble: the input is at fault, not the pipeline, so a server
// answers it with a client error.
var ErrBadBinary = errors.New("core: bad binary")

// badBinary marks a parse or disassembly failure as ErrBadBinary while
// keeping the failure's own message.
type badBinary struct{ err error }

func (e badBinary) Error() string   { return e.err.Error() }
func (e badBinary) Unwrap() []error { return []error{ErrBadBinary, e.err} }

// disassemble parses raw SOTB bytes and recovers their CFG.
func disassemble(raw []byte) (*disasm.CFG, error) {
	bin, err := isa.DecodeBinary(raw)
	if err != nil {
		return nil, badBinary{fmt.Errorf("core: parse binary: %w", err)}
	}
	cfg, err := disasm.Disassemble(bin)
	if err != nil {
		return nil, badBinary{fmt.Errorf("core: disassemble: %w", err)}
	}
	return cfg, nil
}
