package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"dpc/internal/kmedian"
)

// Config wire encoding: the payload of a jobwire.KindPoint job frame. The
// coordinator ships its (defaults-applied) Config to every site before each
// run, so all processes provably run the same protocol parameters — the
// per-site solves are seeded from LocalOpts.Seed + site index, which makes
// a TCP run reproduce the loopback run bit for bit. The format is a fixed
// little-endian record; Transport and Topology say where an in-process
// fleet lives, are read by the coordinator alone and are not shipped.
//
// The engine knobs (Workers, NoCache, Reference) cross too:
// they never change results, but a Reference or NoCache measurement run
// must reach the sites or its recorded baseline would silently be the fast
// engine. Workers crosses as configured; the 0 default still means "one
// worker per CPU" resolved on each site's own host. Version 4 dropped the
// two pivot-index fields of version 3; a version 3 record is rejected.

const configWireVersion = 4

// configWireSize is the encoded size of a record.
const configWireSize = 1 + // version
	8 + 8 + // K, T
	1 + 1 + // Objective, Variant
	8 + // Eps
	1 + 1 + // RelaxCenters, LloydPolish
	8 + 8 + 8 + // Rho, Delta, HullBase
	1 + // Engine
	8 + 8 + 8 + 8 + // LocalOpts: Seed, MaxIters, SampleFacilities, Restarts
	8 + 1 + 1 // Workers, NoCache, Reference

// EncodeConfig serializes the protocol-relevant configuration (with
// defaults applied) for a coordinator -> site job frame.
func EncodeConfig(cfg Config) []byte {
	cfg = cfg.withDefaults()
	b := make([]byte, 0, configWireSize)
	b = append(b, configWireVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cfg.K)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cfg.T)))
	b = append(b, byte(cfg.Objective), byte(cfg.Variant))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.Eps))
	b = append(b, boolByte(cfg.RelaxCenters), boolByte(cfg.LloydPolish))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.Rho))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.Delta))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.HullBase))
	b = append(b, byte(cfg.Engine))
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.LocalOpts.Seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cfg.LocalOpts.MaxIters)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cfg.LocalOpts.SampleFacilities)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cfg.LocalOpts.Restarts)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cfg.Workers)))
	b = append(b, boolByte(cfg.NoCache), boolByte(cfg.Reference))
	return b
}

// DecodeConfig parses an EncodeConfig record.
func DecodeConfig(b []byte) (Config, error) {
	if len(b) < 1 {
		return Config{}, fmt.Errorf("core: empty config record")
	}
	if b[0] != configWireVersion {
		return Config{}, fmt.Errorf("core: unsupported config version %d", b[0])
	}
	if len(b) != configWireSize {
		return Config{}, fmt.Errorf("core: config record is %d bytes, want %d", len(b), configWireSize)
	}
	var cfg Config
	off := 1
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	u8 := func() byte {
		v := b[off]
		off++
		return v
	}
	cfg.K = int(int64(u64()))
	cfg.T = int(int64(u64()))
	cfg.Objective = Objective(u8())
	cfg.Variant = Variant(u8())
	cfg.Eps = math.Float64frombits(u64())
	cfg.RelaxCenters = u8() == 1
	cfg.LloydPolish = u8() == 1
	cfg.Rho = math.Float64frombits(u64())
	cfg.Delta = math.Float64frombits(u64())
	cfg.HullBase = math.Float64frombits(u64())
	cfg.Engine = kmedian.Engine(u8())
	cfg.LocalOpts.Seed = int64(u64())
	cfg.LocalOpts.MaxIters = int(int64(u64()))
	cfg.LocalOpts.SampleFacilities = int(int64(u64()))
	cfg.LocalOpts.Restarts = int(int64(u64()))
	cfg.Workers = int(int64(u64()))
	cfg.NoCache = u8() == 1
	cfg.Reference = u8() == 1
	// Re-apply defaults so derived fields (LocalOpts.Workers/Reference,
	// which are not shipped separately) are consistent on the site side;
	// withDefaults is idempotent, so this exactly mirrors the encoder's
	// view of the config.
	return cfg.withDefaults(), nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
