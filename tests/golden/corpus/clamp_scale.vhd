-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'clamp_scale'
-- data path: 10 nodes (6 soft, 4 hard), 2 pipeline stages
-- netlist: 14 cells, 18 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    v0_A0 : in signed(9 downto 0);
    v1_gain : in signed(7 downto 0);
    v3_t_out : out signed(17 downto 0);
    v5_t_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_node1;

architecture rtl of clamp_scale_dp_node1 is
  signal v2_t : signed(17 downto 0);
  signal v3_t : signed(17 downto 0);
  signal v5_t : unsigned(0 downto 0);
  signal v2_t_s1 : signed(17 downto 0);
begin
  v2_t <= resize(resize(v0_A0, 18) * resize(v1_gain, 18), 18);
  v3_t <= v2_t_s1;
  v5_t <= "1" when resize(v3_t, 19) > to_signed(2047, 19) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v2_t_s1 <= v2_t;
      end if;
    end if;
  end process;
  v3_t_out <= v3_t;
  v5_t_out <= v5_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node2 is
  port (
    v3_t : in signed(17 downto 0);
    v7_t_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_node2;

architecture rtl of clamp_scale_dp_node2 is
  signal v7_t : unsigned(0 downto 0);
begin
  v7_t <= "1" when resize(v3_t, 19) < to_signed(-2048, 19) else "0";
  v7_t_out <= v7_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node3 is
  port (
    v3_t : in signed(17 downto 0);
    v8_t_out : out signed(15 downto 0)
  );
end entity clamp_scale_dp_node3;

architecture rtl of clamp_scale_dp_node3 is
  signal v8_t : signed(15 downto 0);
begin
  v8_t <= resize(v3_t, 16);
  v8_t_out <= v8_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node4 is
  port (
    v9_t_out : out signed(11 downto 0)
  );
end entity clamp_scale_dp_node4;

architecture rtl of clamp_scale_dp_node4 is
begin
  v9_t_out <= v9_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_mux_bb6 is
  port (
    v8_t : in signed(15 downto 0);
    v14_pipe : in unsigned(0 downto 0);
    v10_outport0_4_out : out signed(15 downto 0)
  );
end entity clamp_scale_dp_mux_bb6;

architecture rtl of clamp_scale_dp_mux_bb6 is
  signal v10_outport0_4 : signed(15 downto 0);
begin
  v10_outport0_4 <= to_signed(-2048, 16) when v14_pipe = 1 else v8_t;
  v10_outport0_4_out <= v10_outport0_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node6 is
  port (
    v11_t_out : out unsigned(10 downto 0)
  );
end entity clamp_scale_dp_node6;

architecture rtl of clamp_scale_dp_node6 is
begin
  v11_t_out <= v11_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_mux_bb3 is
  port (
    v10_outport0_4 : in signed(15 downto 0);
    v13_pipe : in unsigned(0 downto 0);
    v12_outport0_5_out : out signed(15 downto 0)
  );
end entity clamp_scale_dp_mux_bb3;

architecture rtl of clamp_scale_dp_mux_bb3 is
  signal v12_outport0_5 : signed(15 downto 0);
begin
  v12_outport0_5 <= to_signed(2047, 16) when v13_pipe = 1 else v10_outport0_4;
  v12_outport0_5_out <= v12_outport0_5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_node8 is
  port (
  );
end entity clamp_scale_dp_node8;

architecture rtl of clamp_scale_dp_node8 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_pipe_bb3 is
  port (
    v5_t : in unsigned(0 downto 0);
    v13_pipe_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_pipe_bb3;

architecture rtl of clamp_scale_dp_pipe_bb3 is
  signal v13_pipe : unsigned(0 downto 0);
begin
  v13_pipe <= v5_t;
  v13_pipe_out <= v13_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp_pipe_bb6 is
  port (
    v7_t : in unsigned(0 downto 0);
    v14_pipe_out : out unsigned(0 downto 0)
  );
end entity clamp_scale_dp_pipe_bb6;

architecture rtl of clamp_scale_dp_pipe_bb6 is
  signal v14_pipe : unsigned(0 downto 0);
begin
  v14_pipe <= v7_t;
  v14_pipe_out <= v14_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity clamp_scale_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(9 downto 0);
    gain : in signed(7 downto 0);
    C_o0 : out signed(15 downto 0)
  );
end entity clamp_scale_dp;

architecture rtl of clamp_scale_dp is
  signal v3_t : signed(17 downto 0);
  signal v5_t : unsigned(0 downto 0);
  signal v7_t : unsigned(0 downto 0);
  signal v8_t : signed(15 downto 0);
  signal v10_outport0_4 : signed(15 downto 0);
  signal v12_outport0_5 : signed(15 downto 0);
  signal v13_pipe : unsigned(0 downto 0);
  signal v14_pipe : unsigned(0 downto 0);
begin
  u_node1 : entity work.clamp_scale_dp_node1
    port map (clk => clk, ce => ce, v0_A0 => A0, v1_gain => gain, v3_t_out => v3_t, v5_t_out => v5_t);
  u_node2 : entity work.clamp_scale_dp_node2
    port map (v3_t => v3_t, v7_t_out => v7_t);
  u_node3 : entity work.clamp_scale_dp_node3
    port map (v3_t => v3_t, v8_t_out => v8_t);
  u_node4 : entity work.clamp_scale_dp_node4
    port map (v9_t_out => v9_t);
  u_mux_bb6 : entity work.clamp_scale_dp_mux_bb6
    port map (v8_t => v8_t, v14_pipe => v14_pipe, v10_outport0_4_out => v10_outport0_4);
  u_node6 : entity work.clamp_scale_dp_node6
    port map (v11_t_out => v11_t);
  u_mux_bb3 : entity work.clamp_scale_dp_mux_bb3
    port map (v10_outport0_4 => v10_outport0_4, v13_pipe => v13_pipe, v12_outport0_5_out => v12_outport0_5);
  u_node8 : entity work.clamp_scale_dp_node8
    port map ();
  u_pipe_bb3 : entity work.clamp_scale_dp_pipe_bb3
    port map (v5_t => v5_t, v13_pipe_out => v13_pipe);
  u_pipe_bb6 : entity work.clamp_scale_dp_pipe_bb6
    port map (v7_t => v7_t, v14_pipe_out => v14_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
      end if;
    end if;
  end process;
  C_o0 <= resize(v12_outport0_5, 16);
end architecture rtl;
