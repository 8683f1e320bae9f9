package main

import (
	"strings"
	"testing"
	"time"
)

func TestRunFlagsValidate(t *testing.T) {
	ok := runFlags{scale: 0.05, duration: 4 * time.Minute, shardWorker: -1}
	for _, tc := range []struct {
		name string
		edit func(*runFlags)
		err  string // substring of the error; empty: accepted
	}{
		{name: "defaults", edit: func(*runFlags) {}},
		{name: "recon single-process", edit: func(f *runFlags) { f.recon = true }},
		{name: "recon with a fresh journal", edit: func(f *runFlags) { f.recon, f.journal = true, "j" }},
		{name: "resume", edit: func(f *runFlags) { f.resume = "j" }},
		{name: "resume into the same journal", edit: func(f *runFlags) { f.resume, f.journal = "j", "j" }},
		{name: "shards", edit: func(f *runFlags) { f.shards = 2 }},
		{name: "shard worker", edit: func(f *runFlags) { f.shards, f.shardWorker = 2, 0 }},
		{name: "zero scale", edit: func(f *runFlags) { f.scale = 0 }, err: "-scale must be positive"},
		{name: "negative scale", edit: func(f *runFlags) { f.scale = -1 }, err: "-scale must be positive"},
		{name: "zero duration", edit: func(f *runFlags) { f.duration = 0 }, err: "-duration must be positive"},
		{name: "zero scale sharded", edit: func(f *runFlags) { f.scale, f.shards = 0, 1 }, err: "-scale must be positive"},
		{name: "zero duration sharded", edit: func(f *runFlags) { f.duration, f.shards = 0, 1 }, err: "-duration must be positive"},
		{name: "shard worker without shards", edit: func(f *runFlags) { f.shardWorker = 0 }, err: "-shard-worker requires -shards"},
		{name: "shards with journal", edit: func(f *runFlags) { f.shards, f.journal = 2, "j" }, err: "drop -journal/-resume"},
		{name: "shards with resume", edit: func(f *runFlags) { f.shards, f.resume = 2, "j" }, err: "drop -journal/-resume"},
		{name: "recon with shards", edit: func(f *runFlags) { f.recon, f.shards = true, 2 }, err: "drop -shards"},
		{name: "recon in a shard worker", edit: func(f *runFlags) { f.recon, f.shards, f.shardWorker = true, 2, 1 }, err: "drop -shards"},
		{name: "recon with resume", edit: func(f *runFlags) { f.recon, f.resume = true, "j" }, err: "drop -resume"},
		{name: "resume into another journal", edit: func(f *runFlags) { f.resume, f.journal = "j", "k" }, err: "-resume appends to the resumed journal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.edit(&f)
			err := f.validate()
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want one containing %q", err, tc.err)
			}
		})
	}
}

func TestSelectServices(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys string
		want []string // selected keys in order; nil with err set
		err  string
	}{
		{name: "known key", keys: "weathernow", want: []string{"weathernow"}},
		{name: "demo keys", keys: "pulsechat, beaconify", want: []string{"pulsechat", "beaconify"}},
		{name: "catalog before demos", keys: "beaconify,weathernow", want: []string{"weathernow", "beaconify"}},
		{name: "unknown key", keys: "weathernow,nosuchapp", err: `unknown service "nosuchapp"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs, err := selectServices(tc.keys)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, s := range specs {
				got = append(got, s.Key)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("selected %v, want %v", got, tc.want)
			}
		})
	}
	all, err := selectServices("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Errorf("default selection = %d services, want the 50-service catalog", len(all))
	}
	for _, s := range all {
		if s.Key == "pulsechat" || s.Key == "beaconify" {
			t.Errorf("default selection includes protocol demo %q", s.Key)
		}
	}
}
