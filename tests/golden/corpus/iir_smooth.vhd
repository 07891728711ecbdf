-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'iir_smooth'
-- data path: 1 nodes (1 soft, 0 hard), 1 pipeline stages
-- netlist: 8 cells, 20 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity iir_smooth_dp_node1 is
  port (
    v0_X0 : in signed(11 downto 0);
    v6_t_out : out signed(19 downto 0);
    v8_t_out : out signed(11 downto 0)
  );
end entity iir_smooth_dp_node1;

architecture rtl of iir_smooth_dp_node1 is
  signal v1_acc_prev : signed(19 downto 0);
  signal v3_t : signed(16 downto 0);
  signal v4_t : signed(20 downto 0);
  signal v5_t : signed(20 downto 0);
  signal v6_t : signed(19 downto 0);
  signal v7_t : signed(16 downto 0);
  signal v8_t : signed(11 downto 0);
begin
  v3_t <= shift_right(resize(v1_acc_prev, 17), to_integer(to_unsigned(3, 6)));
  v4_t <= resize(v1_acc_prev, 21) - resize(v3_t, 21);
  v5_t <= v4_t + resize(v0_X0, 21);
  v6_t <= resize(v5_t, 20);
  v7_t <= shift_right(resize(v6_t, 17), to_integer(to_unsigned(3, 6)));
  v8_t <= resize(v7_t, 12);
  v6_t_out <= v6_t;
  v8_t_out <= v8_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity iir_smooth_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    X0 : in signed(11 downto 0);
    Y_o0 : out signed(11 downto 0)
  );
end entity iir_smooth_dp;

architecture rtl of iir_smooth_dp is
  signal v1_acc_prev : signed(19 downto 0);
  signal v6_t : signed(19 downto 0);
  signal v8_t : signed(11 downto 0);
  signal acc_reg : signed(19 downto 0) := to_signed(0, 19 + 1);
begin
  u_node1 : entity work.iir_smooth_dp_node1
    port map (v0_X0 => X0, v6_t_out => v6_t, v8_t_out => v8_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        if valid = '1' then
          acc_reg <= v6_t;
        end if;
      end if;
    end if;
  end process;
  v1_acc_prev <= acc_reg;
  Y_o0 <= resize(v8_t, 12);
end architecture rtl;
