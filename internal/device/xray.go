package device

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mednet"
	"repro/internal/sim"
)

// XRay is the portable X-ray machine of the interoperability scenario.
// Its single actuator takes an exposure; whether the resulting image is
// sharp depends on the physical truth — was the chest still for the whole
// exposure? — which it cannot observe directly. The synchronization
// protocols in internal/closedloop decide *when* to trigger it.
//
// Capabilities:
//
//	event    image  — 1 sharp, 0 blurred, published when exposure completes
//	actuator shoot  — args: exposure-ms (default 100)
type XRay struct {
	conn *core.DeviceConn
	k    *sim.Kernel
	vent *Ventilator // physical coupling: the chest being imaged

	exposing bool

	// Counters for experiments.
	Sharp   uint64
	Blurred uint64
	Refused uint64
}

// XRayDescriptor returns the ICE descriptor an X-ray machine announces.
func XRayDescriptor(id string) core.Descriptor {
	return core.Descriptor{
		ID: id, Kind: core.KindXRay,
		Manufacturer: "Repro Medical", Model: "XR-3", Version: "1.0",
		Capabilities: []core.Capability{
			{Name: "image", Class: core.ClassEvent, Criticality: 2},
			{Name: "shoot", Class: core.ClassActuator, Unit: "ms", Criticality: 2},
		},
	}
}

// NewXRay connects an X-ray machine physically aimed at the chest the
// given ventilator drives.
func NewXRay(k *sim.Kernel, net *mednet.Network, id string, vent *Ventilator, cfg core.ConnectConfig) (*XRay, error) {
	conn, err := core.Connect(k, net, XRayDescriptor(id), cfg)
	if err != nil {
		return nil, err
	}
	x := &XRay{conn: conn, k: k, vent: vent}
	conn.Handle("shoot", func(args map[string]float64) error {
		expMs := args["exposure-ms"]
		if expMs <= 0 {
			expMs = 100
		}
		return x.Shoot(sim.Time(expMs) * sim.Millisecond)
	})
	return x, nil
}

// MustNewXRay is NewXRay, panicking on error.
func MustNewXRay(k *sim.Kernel, net *mednet.Network, id string, vent *Ventilator, cfg core.ConnectConfig) *XRay {
	x, err := NewXRay(k, net, id, vent, cfg)
	if err != nil {
		panic(err)
	}
	return x
}

// Conn exposes the ICE connection.
func (x *XRay) Conn() *core.DeviceConn { return x.conn }

// Shoot begins an exposure of the given duration. The image sharpness is
// evaluated against the true chest motion over the exposure interval and
// published as an image event when the exposure completes.
func (x *XRay) Shoot(exposure sim.Time) error {
	if x.exposing {
		x.Refused++
		return fmt.Errorf("device: x-ray already exposing")
	}
	if exposure <= 0 {
		return fmt.Errorf("device: non-positive exposure %v", exposure)
	}
	x.exposing = true
	start := x.k.Now()
	x.k.After(exposure.Duration(), func() {
		x.exposing = false
		sharp := x.vent.ChestStillDuring(start, x.k.Now())
		val := 0.0
		if sharp {
			x.Sharp++
			val = 1
		} else {
			x.Blurred++
		}
		if x.conn.Connected() {
			x.conn.Publish("image", val, true, 1, start)
		}
	})
	return nil
}
