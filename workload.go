package spinngo

import (
	"fmt"

	"spinngo/internal/workload"
)

// Declared-workload support: the internal/workload package parses and
// validates the JSON documents; this file turns a parsed document into
// a booted, loaded machine with its stimuli and fault campaign armed,
// and runs it on the document's chunk schedule. Campaign faults ride
// the canonical event path (Schedule*), so a workload replays
// byte-identically on every worker count and partition geometry, and
// through snapshot/restore.

// workloadMachineConfig maps the declared machine onto MachineConfig.
func workloadMachineConfig(m *workload.Machine, workers int, partition string) MachineConfig {
	return MachineConfig{
		Width: m.Width, Height: m.Height, Seed: m.Seed,
		Workers: workers, Partition: partition,
		Boards: m.Boards, BoardLinkParams: m.BoardLink,
		Cabinets: m.Cabinets, CabinetLinkParams: m.CabinetLink,
		HostOrigin:              m.HostOrigin,
		MaxAppCoresPerChip:      m.MaxAppCoresPerChip,
		MaxNeuronsPerCore:       m.MaxNeuronsPerCore,
		FillRedundancy:          m.FillRedundancy,
		CoreFaultProb:           m.CoreFaultProb,
		DisableEmergencyRouting: m.NoEmergencyRouting,
	}
}

// workloadModel builds the network a workload declares.
func workloadModel(wl *workload.Workload) (*Model, map[string]Pop, error) {
	model := NewModel()
	pops := make(map[string]Pop, len(wl.Populations))
	for i := range wl.Populations {
		p := &wl.Populations[i]
		switch p.Kind {
		case workload.PopPoisson:
			pops[p.Name] = model.AddPoisson(p.Name, p.Size, p.RateHz)
		case workload.PopLIF:
			cfg := DefaultLIFConfig()
			cfg.BiasNA = p.BiasNA
			pops[p.Name] = model.AddLIF(p.Name, p.Size, cfg)
		case workload.PopIzhikevich:
			var cfg IzhikevichConfig
			switch p.Preset {
			case workload.IzhFast:
				cfg = FastSpikingConfig()
			case workload.IzhChattering:
				cfg = ChatteringConfig()
			default:
				cfg = RegularSpikingConfig()
			}
			cfg.BiasNA = p.BiasNA
			pops[p.Name] = model.AddIzhikevich(p.Name, p.Size, cfg)
		default:
			return nil, nil, fmt.Errorf("spinngo: workload population kind %q", p.Kind)
		}
	}
	for i := range wl.Projections {
		pr := &wl.Projections[i]
		conn := Conn{
			P: pr.P, Fanout: pr.Fanout,
			WeightNA: pr.WeightNA, DelayMS: pr.DelayMS,
			Inhibitory: pr.Inhibitory, Seed: pr.Seed,
		}
		if conn.DelayMS == 0 {
			conn.DelayMS = 1
		}
		switch pr.Rule {
		case workload.RuleAll:
			conn.Rule = AllToAllRule
		case workload.RuleOne:
			conn.Rule = OneToOneRule
		case workload.RuleProb:
			conn.Rule = RandomRule
		case workload.RuleFanout:
			conn.Rule = FanoutRule
		default:
			return nil, nil, fmt.Errorf("spinngo: workload projection rule %q", pr.Rule)
		}
		if pr.STDP {
			conn.STDP = DefaultSTDPRule()
		}
		if err := model.Connect(pops[pr.From], pops[pr.To], conn); err != nil {
			return nil, nil, fmt.Errorf("spinngo: workload projection %s->%s: %w", pr.From, pr.To, err)
		}
	}
	return model, pops, nil
}

// armWorkload schedules the workload's stimuli and campaign on a loaded
// machine. Everything armed here goes through descriptor-carrying
// canonical events, so the schedule survives snapshot/restore.
func (m *Machine) armWorkload(wl *workload.Workload) error {
	for i := range wl.Stimuli {
		s := &wl.Stimuli[i]
		pop, ok := m.Pop(s.Pop)
		if !ok {
			return fmt.Errorf("spinngo: workload stimulus population %q not loaded", s.Pop)
		}
		switch s.Kind {
		case workload.StimSpike:
			if err := m.InjectSpike(pop, s.Neuron, s.AtMS); err != nil {
				return fmt.Errorf("spinngo: workload stimulus %d: %w", i, err)
			}
		case workload.StimScan:
			size := pop.Size()
			for ms := s.StartMS; ms <= s.EndMS; ms += s.EveryMS {
				for k := 0; k < s.Count; k++ {
					if err := m.InjectSpike(pop, (ms*17+k*s.Stride)%size, ms); err != nil {
						return fmt.Errorf("spinngo: workload stimulus %d at %dms: %w", i, ms, err)
					}
				}
			}
		default:
			return fmt.Errorf("spinngo: workload stimulus kind %q", s.Kind)
		}
	}
	if wl.Campaign == nil {
		return nil
	}
	for _, f := range wl.Campaign.Expand(wl.Machine.Width, wl.Machine.Height) {
		var err error
		switch f.Kind {
		case workload.EvFailLink:
			err = m.ScheduleFailLink(f.AtMS, f.X, f.Y, f.Dir)
		case workload.EvRepairLink:
			err = m.ScheduleRepairLink(f.AtMS, f.X, f.Y, f.Dir)
		case workload.EvFailChip:
			err = m.ScheduleFailChip(f.AtMS, f.X, f.Y)
		default:
			err = fmt.Errorf("unexpanded campaign kind %q", f.Kind)
		}
		if err != nil {
			return fmt.Errorf("spinngo: workload campaign %s at %dms: %w", f.Kind, f.AtMS, err)
		}
	}
	return nil
}

// PrepareWorkload builds, boots and loads the machine a workload
// declares, arms its stimuli and fault campaign, and returns it ready
// to run on the WorkloadChunks schedule.
func PrepareWorkload(wl *workload.Workload) (*Machine, error) {
	return PrepareWorkloadOn(wl, wl.Machine.Workers, wl.Machine.Partition)
}

// PrepareWorkloadOn is PrepareWorkload with the execution strategy —
// workers and partition geometry — overridden. Like RestoreOn, the
// choice never changes results.
func PrepareWorkloadOn(wl *workload.Workload, workers int, partition string) (*Machine, error) {
	machine, err := NewMachine(workloadMachineConfig(&wl.Machine, workers, partition))
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			machine.Close()
		}
	}()
	if _, err := machine.Boot(); err != nil {
		return nil, fmt.Errorf("spinngo: workload boot: %w", err)
	}
	model, _, err := workloadModel(wl)
	if err != nil {
		return nil, err
	}
	if _, err := machine.Load(model); err != nil {
		return nil, fmt.Errorf("spinngo: workload load: %w", err)
	}
	if err := machine.armWorkload(wl); err != nil {
		return nil, err
	}
	ok = true
	return machine, nil
}

// WorkloadChunks is the run schedule a workload's chunk_ms declares:
// the lengths of the successive Run calls. Every runner must use this
// schedule — deferred link repairs commit at the chunk boundaries, so
// the chunking is part of the experiment, not an execution choice.
func WorkloadChunks(wl *workload.Workload) []int {
	chunk := wl.Run.ChunkMS
	if chunk <= 0 || chunk > wl.Run.BioMS {
		chunk = wl.Run.BioMS
	}
	var steps []int
	for remaining := wl.Run.BioMS; remaining > 0; remaining -= chunk {
		n := chunk
		if n > remaining {
			n = remaining
		}
		steps = append(steps, n)
	}
	return steps
}

// RunWorkload prepares a workload and runs it to completion, returning
// the machine (for raster and stats inspection) and the final report.
func RunWorkload(wl *workload.Workload) (*Machine, *RunReport, error) {
	return RunWorkloadOn(wl, wl.Machine.Workers, wl.Machine.Partition)
}

// RunWorkloadOn is RunWorkload with the execution strategy overridden.
func RunWorkloadOn(wl *workload.Workload, workers int, partition string) (*Machine, *RunReport, error) {
	machine, err := PrepareWorkloadOn(wl, workers, partition)
	if err != nil {
		return nil, nil, err
	}
	var rep *RunReport
	for _, n := range WorkloadChunks(wl) {
		if rep, err = machine.Run(n); err != nil {
			machine.Close()
			return nil, nil, err
		}
	}
	return machine, rep, nil
}
